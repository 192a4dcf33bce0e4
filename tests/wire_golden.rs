//! Golden wire encodings: the exact bytes the artifact codec writes for
//! every suite cell (the 14 MiBench workloads under the eight
//! configurations of `bench::suite_configs`) and for every entry a cold
//! sweep of that suite publishes to the persistent store — one manifest
//! per cell.
//!
//! Each cell row pins the FNV-1a hash of its `wire::encode_cell` bytes.
//! Each store row pins an entry's kind, its file name (the versioned store
//! key, so key derivation and `SCHEMA_VERSION` are covered too) and the
//! hash of its payload decoded and re-encoded. Wall-clock fields are the
//! only nondeterministic part of an artifact, so they are zeroed before
//! hashing: every `PassTrace::wall_ns`.
//!
//! The sweep runs on one worker from cold caches, so per-build cache
//! provenance (`StageHits`, `PassTrace::cached`) is deterministic. Run in
//! release (`cargo test --release --test wire_golden`); a mismatch prints
//! the full recomputed table. A second test serves every suite cell from
//! such a store, which recomputes it, and checks it against the cold cell
//! byte for byte.

use bitspec::fingerprint::Fnv;
use bitspec::pipeline::PassTrace;
use bitspec::{memo, program_fingerprint, stages, store, wire, Compiled, Manifest, SimResult};
use mibench::{names, workload, Input};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Both tests point the process-wide store at a scratch directory.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Labels of `bench::suite_configs`, in its order.
const CONFIGS: [&str; 8] = [
    "baseline",
    "bitspec",
    "max",
    "avg",
    "min",
    "no-cmp-elim",
    "no-bitmask",
    "nospec",
];

/// `(workload, config, hash of encode_cell)`.
const GOLDEN_CELLS: &[(&str, &str, u64)] = &[
    ("crc32", "baseline", 0xf3b57afb127369fc),
    ("crc32", "bitspec", 0x261089b060980f53),
    ("crc32", "max", 0xfd42451d1a352d5e),
    ("crc32", "avg", 0x72c9138ff256000f),
    ("crc32", "min", 0x05950cdb8f0f1f40),
    ("crc32", "no-cmp-elim", 0xab82428e4f290cdc),
    ("crc32", "no-bitmask", 0x847c3221375fbcff),
    ("crc32", "nospec", 0x31ee14c48b8e8ed6),
    ("fft", "baseline", 0x85e71f65890206ee),
    ("fft", "bitspec", 0x519a68f19acba6f5),
    ("fft", "max", 0xcf44670445a8c6e0),
    ("fft", "avg", 0xd48c10f66a35d5bf),
    ("fft", "min", 0x6409ca1fe6e08bf0),
    ("fft", "no-cmp-elim", 0x7ef562bfc1706d7e),
    ("fft", "no-bitmask", 0x1d15f4e84b8a71fc),
    ("fft", "nospec", 0x3234e1fb7822dea2),
    ("basicmath", "baseline", 0x360c40987d8d6a61),
    ("basicmath", "bitspec", 0x20d09ab72ff43473),
    ("basicmath", "max", 0x4059a5edb194d91f),
    ("basicmath", "avg", 0xca3f87d1fc9d5caf),
    ("basicmath", "min", 0x7d2663a69fbbb3fc),
    ("basicmath", "no-cmp-elim", 0x0a55c5038f44099a),
    ("basicmath", "no-bitmask", 0x2feda16b32f1be08),
    ("basicmath", "nospec", 0x86ea79b116d3f0c3),
    ("bitcount", "baseline", 0x4f9129d33269b227),
    ("bitcount", "bitspec", 0x46330a9a3a6e8e41),
    ("bitcount", "max", 0xf4abef6140d30617),
    ("bitcount", "avg", 0x31ed45974f34de3d),
    ("bitcount", "min", 0xd147a87ad8b08b7d),
    ("bitcount", "no-cmp-elim", 0x80549e19d55786b4),
    ("bitcount", "no-bitmask", 0x47fa1350747fa819),
    ("bitcount", "nospec", 0xb2f8cc9ddb2e1ece),
    ("blowfish", "baseline", 0x410b7ae72c4a8121),
    ("blowfish", "bitspec", 0xa1f75549a0861481),
    ("blowfish", "max", 0xc001ad318d06bc7a),
    ("blowfish", "avg", 0x43586293f05683c6),
    ("blowfish", "min", 0x145797ac3b64658c),
    ("blowfish", "no-cmp-elim", 0x151cc5dc9bb484db),
    ("blowfish", "no-bitmask", 0x69d639168442b118),
    ("blowfish", "nospec", 0x60167b55f74a806c),
    ("dijkstra", "baseline", 0xb6b167f854a12337),
    ("dijkstra", "bitspec", 0xe3819b19c4fffb42),
    ("dijkstra", "max", 0x46200305a0d360d8),
    ("dijkstra", "avg", 0x987ceae8cf5771e7),
    ("dijkstra", "min", 0x2845f032b53bfbee),
    ("dijkstra", "no-cmp-elim", 0x051779ecc7cef500),
    ("dijkstra", "no-bitmask", 0x1b780d2541174431),
    ("dijkstra", "nospec", 0xe9e745c8ba740b13),
    ("patricia", "baseline", 0x8eac40ff75477619),
    ("patricia", "bitspec", 0xe124cb66c6bc10ef),
    ("patricia", "max", 0xb939795ba4e05154),
    ("patricia", "avg", 0xbc5e8443ce87f978),
    ("patricia", "min", 0x6489af78db43eef8),
    ("patricia", "no-cmp-elim", 0xbc0c43e3c194dc2f),
    ("patricia", "no-bitmask", 0x00889283b6043f47),
    ("patricia", "nospec", 0xb102704113473df4),
    ("qsort", "baseline", 0xb1fab37a6b7daa7d),
    ("qsort", "bitspec", 0x3ab4892360e3d97d),
    ("qsort", "max", 0x3ae33c7cbd320134),
    ("qsort", "avg", 0x69aab6b82666e4dd),
    ("qsort", "min", 0xf32d9ef30fe1a247),
    ("qsort", "no-cmp-elim", 0x3e5e8f86413df649),
    ("qsort", "no-bitmask", 0xade28434f3f6bbef),
    ("qsort", "nospec", 0x790ef950f0e115d8),
    ("rijndael", "baseline", 0xfa07b6a3cb06779e),
    ("rijndael", "bitspec", 0x8b96e8833920ccee),
    ("rijndael", "max", 0x411bf92a4c2ecadd),
    ("rijndael", "avg", 0x75ea7f3d58959c3b),
    ("rijndael", "min", 0x6c3f5cee87e96bf7),
    ("rijndael", "no-cmp-elim", 0x75c9017024c39373),
    ("rijndael", "no-bitmask", 0xe22abb404dc6e3f3),
    ("rijndael", "nospec", 0x420e796ec045bb6b),
    ("sha", "baseline", 0x69db24fd70ba6c4b),
    ("sha", "bitspec", 0x11701a7531f04ee5),
    ("sha", "max", 0x78bd048f627ab0e2),
    ("sha", "avg", 0x66ca6c8dc380cb43),
    ("sha", "min", 0x66f8d687d2e8efaa),
    ("sha", "no-cmp-elim", 0xee48b6965b48af53),
    ("sha", "no-bitmask", 0x2871ae13ec6ce0f5),
    ("sha", "nospec", 0xf2e7bbf1e2d32dc3),
    ("stringsearch", "baseline", 0x7ccf0af68e2101a9),
    ("stringsearch", "bitspec", 0xf1d809d267d7a9a7),
    ("stringsearch", "max", 0x8d428c95f6010a53),
    ("stringsearch", "avg", 0x9a1ff9eff7f32a7c),
    ("stringsearch", "min", 0xa28f008fff273c42),
    ("stringsearch", "no-cmp-elim", 0x3344122d16b1a0e9),
    ("stringsearch", "no-bitmask", 0x299f96f34aac5623),
    ("stringsearch", "nospec", 0x445351e978c6e068),
    ("susan-edges", "baseline", 0x5f9e37f089c1f250),
    ("susan-edges", "bitspec", 0x9e4e6c71af0a0bbf),
    ("susan-edges", "max", 0x8fb224fae82164af),
    ("susan-edges", "avg", 0xcd780f31d3caf6c4),
    ("susan-edges", "min", 0x9991412501884cd4),
    ("susan-edges", "no-cmp-elim", 0xa052e70b166d3c99),
    ("susan-edges", "no-bitmask", 0x8ed4eab49a81c013),
    ("susan-edges", "nospec", 0x23883f4354f87f67),
    ("susan-corners", "baseline", 0x37657bf4c5efcdcf),
    ("susan-corners", "bitspec", 0x6b11dbede14ad1a1),
    ("susan-corners", "max", 0x6f1e108e397c6d45),
    ("susan-corners", "avg", 0x0380d7c03cded136),
    ("susan-corners", "min", 0x6dba8d1c0f5e2f04),
    ("susan-corners", "no-cmp-elim", 0x4462d7f6ff57715b),
    ("susan-corners", "no-bitmask", 0x9fe0986f36caed11),
    ("susan-corners", "nospec", 0xf2464a1df9f342c8),
    ("susan-smoothing", "baseline", 0x7ca4451aee55cdde),
    ("susan-smoothing", "bitspec", 0x8fd7f8208da430f8),
    ("susan-smoothing", "max", 0x5bff6b0171576071),
    ("susan-smoothing", "avg", 0x2cfd68c4fb632cbe),
    ("susan-smoothing", "min", 0xc9a3950a15a2530a),
    ("susan-smoothing", "no-cmp-elim", 0x148a94e7feac1eed),
    ("susan-smoothing", "no-bitmask", 0x77f2425db1c4f333),
    ("susan-smoothing", "nospec", 0xaa25c2fec2d25519),
];

/// `(kind, entry file name, hash of the re-encoded payload)`, sorted.
const GOLDEN_ENTRIES: &[(&str, &str, u64)] = &[
    ("manifest", "00a23611e864e4fd.art", 0x920c7531fc94b709),
    ("manifest", "03cd0631eed2061f.art", 0xec6a6b0e8e10b071),
    ("manifest", "05389a7ea388e43b.art", 0x5840037ff6c3ee88),
    ("manifest", "0b07a81061e94826.art", 0x6e96662538f20b9a),
    ("manifest", "0bd93ec4917b8991.art", 0x6720b1956027b7bc),
    ("manifest", "0c35bf97817c8101.art", 0xf9532bb522da4d9e),
    ("manifest", "0c7fc076c8e26e2d.art", 0x6c8b970de6263456),
    ("manifest", "0cc53ac476c63377.art", 0x8f36111d9a8bdb44),
    ("manifest", "0ee2722305972eee.art", 0xf29014e352010f11),
    ("manifest", "0fa14a6c554ccdce.art", 0x8bc4238041405dae),
    ("manifest", "10167e3cbcf75fd2.art", 0x4d0fb337439ef2f5),
    ("manifest", "115897ef79eb402d.art", 0xf79bc1dd0dd0dcf4),
    ("manifest", "17c1529700b17d53.art", 0x469460ee0e6e8a6b),
    ("manifest", "1dc6c667f845ddc1.art", 0x66e4f9a27ea5d886),
    ("manifest", "1fc80cf01905267e.art", 0x903ddfd725ca68d0),
    ("manifest", "2057f66ae978dc5e.art", 0xa06779d198b4462a),
    ("manifest", "235a2a402d47a8cb.art", 0xa8aadcbfa7e285ee),
    ("manifest", "24ccae4f70b8d43e.art", 0x143a99290c92ab35),
    ("manifest", "2cb0c97447ead6b5.art", 0x1f360b41802ea715),
    ("manifest", "2dc35e94a9cf34e0.art", 0x886da05a87c10d77),
    ("manifest", "30ab527d3ee7b602.art", 0x91431aa76152c193),
    ("manifest", "36b37f6cebda8392.art", 0x6a35d5ae6c5cc8a0),
    ("manifest", "3d7d010f512c5293.art", 0xa082485991e9ecc3),
    ("manifest", "3e821177f2ecebf9.art", 0xe0be266eb0a83b10),
    ("manifest", "405851fdbb2d8d42.art", 0xc9e3e8e9ca537a36),
    ("manifest", "4364bf113e6a4fb1.art", 0x265e5a7ef83aa0ca),
    ("manifest", "44dc537b70b8a0f0.art", 0x29ced047af7a1e8b),
    ("manifest", "474638a43b409e13.art", 0x968e397b3362c502),
    ("manifest", "4fbc6839181b3386.art", 0x09d4ae9ef4883cf9),
    ("manifest", "51673fa9a8b92b74.art", 0x09d2d509856a69ee),
    ("manifest", "53831c10db1ef8ef.art", 0xf78ed84488b6cde2),
    ("manifest", "544825f36580a7e2.art", 0xa58b15070b1772ee),
    ("manifest", "564c7bd5b732085e.art", 0x518377a352f91077),
    ("manifest", "5890a42235022264.art", 0x8f83f79ffe62c16a),
    ("manifest", "599d5dd65144fc9d.art", 0xb5ccc7db83efc49a),
    ("manifest", "5a34f112e4238c9d.art", 0x7e4c12fbcd4257f3),
    ("manifest", "5a5461636a7cfdea.art", 0x72757b23792ba34e),
    ("manifest", "5ba25dbbecda01d9.art", 0x63967b4ba1ab7992),
    ("manifest", "5e6acf33e682fa08.art", 0x3cf4aed395002041),
    ("manifest", "5e76836b1c1dd227.art", 0x0fb537db0a01fdbc),
    ("manifest", "605f87970a98cc36.art", 0xff8be5188841c8ab),
    ("manifest", "61bfd67b7fcea43e.art", 0xad1ddf27806b4084),
    ("manifest", "633fa1ba7d4dd1f6.art", 0x9f358072a6086f81),
    ("manifest", "65b4dcd9cb578228.art", 0x1080566349d6c904),
    ("manifest", "6c30da1e328fc49f.art", 0x199d3ebe46d700e7),
    ("manifest", "710e2c2769285dc8.art", 0xfd85ee46104c819d),
    ("manifest", "771287171a00898d.art", 0x47138e7da76c4380),
    ("manifest", "77165dd81452168a.art", 0x6894e1a669de42aa),
    ("manifest", "77c1e59681e83106.art", 0xab0ea46b26da9afb),
    ("manifest", "77df6bf6e28cdfca.art", 0xd79145b9a80830b3),
    ("manifest", "7bba846887224fea.art", 0x7552a722e6208e72),
    ("manifest", "7bdd80005e1a2966.art", 0xf498357f3445afb1),
    ("manifest", "7c57baf114ec96a0.art", 0x29a5e4fa7c9f77c3),
    ("manifest", "7db38e75149b6e6e.art", 0xb734f72b38dec8c3),
    ("manifest", "7ea501aee788f2b3.art", 0x9856a0a12ed69634),
    ("manifest", "83796b78ebfef728.art", 0xa9dd4e2dc0926d60),
    ("manifest", "8571d715a24266bc.art", 0x4632d90281b8f22f),
    ("manifest", "8f53cfe4562bedde.art", 0x21e48d57db9cf80e),
    ("manifest", "8fc88adff9cc4489.art", 0x33520f16166ccae0),
    ("manifest", "902e14cae963d3e2.art", 0xbed55f8215eb6a1c),
    ("manifest", "96dac2a7b4f7f19a.art", 0x9480084547ccbd1e),
    ("manifest", "97a01608e08f6bae.art", 0xc98110a8c2eb36e5),
    ("manifest", "9a787cfcc099a286.art", 0xa08080363a6f1c1e),
    ("manifest", "9ba428f2b84378f7.art", 0x48be642e521701c9),
    ("manifest", "9d24dc2d73b938cf.art", 0x8d6d52df63962578),
    ("manifest", "9ef2eab5906d1398.art", 0x09f039f15a92ba0f),
    ("manifest", "a5c1732318fb78d1.art", 0x4024dca40d293d8c),
    ("manifest", "a7a0ed19a29e939d.art", 0xf28286747d4542fc),
    ("manifest", "a826142aa41f6027.art", 0x4ef7c0aeae53e823),
    ("manifest", "ab2a5b727f88ab84.art", 0xdbdf9b8f8bd5eb61),
    ("manifest", "ac9dddbb3c76551a.art", 0x3c1c1aec9303f52a),
    ("manifest", "afd674678ac7ac02.art", 0xfb1321b709041908),
    ("manifest", "b1b38bc62c7f5aeb.art", 0x5becd30641257efb),
    ("manifest", "b3316ef11b49b36e.art", 0x5b256b288434d8cf),
    ("manifest", "b365e20a37cf6fb3.art", 0x93f7753b265e5aa5),
    ("manifest", "b87be8a92bd673c5.art", 0x852b3cca92d5171b),
    ("manifest", "bebd0352f217a545.art", 0x49d05630c942a093),
    ("manifest", "beeb8255bf3ad305.art", 0xdd2d36678ed39819),
    ("manifest", "beffa43ed49cc369.art", 0xf0c9eaf41b2e9975),
    ("manifest", "bf5f040a8ea52885.art", 0x352850ab72a9ae7c),
    ("manifest", "c3beb50028e301b3.art", 0xc79e63eaa0ae6ccc),
    ("manifest", "c3d4752260ffb7fe.art", 0xda9ea869a160ee3a),
    ("manifest", "c47bd939ed128835.art", 0x6bebc5e61ae48204),
    ("manifest", "c5f2e8ec796522f0.art", 0xf0d6641fc934e4b2),
    ("manifest", "c696e2e6b657ef61.art", 0x5a73ca2f78e9ccf0),
    ("manifest", "c6ec1766e70d3acf.art", 0x1e0ae2f20d23c404),
    ("manifest", "c79d5f288647e526.art", 0x4c561a9d38c98371),
    ("manifest", "c9d2666b16423c76.art", 0x89d2d87485a5c862),
    ("manifest", "d1d50f5c99b9d9ff.art", 0x0bb8574026e6ff1c),
    ("manifest", "d803eea72db7cf91.art", 0xc087982c8632e6f7),
    ("manifest", "dae0ae769e5bc88b.art", 0xe28b77215e242851),
    ("manifest", "dc5dfc06c8b264d6.art", 0xf8214e47a51b9f53),
    ("manifest", "dcc84187f3b66167.art", 0x39ad9442a37f2940),
    ("manifest", "dd46a43bf74ab468.art", 0x7cee682c36d3454f),
    ("manifest", "df3dbe18ecb1639e.art", 0xf4dbe6b6cd30d845),
    ("manifest", "e02693f705f9030d.art", 0xf7f433b76cec1118),
    ("manifest", "e09e82b41230e489.art", 0x85ea08dae5f7724a),
    ("manifest", "e1163dc193bdd123.art", 0xeb3697777fff557e),
    ("manifest", "e62bdff517805b88.art", 0x5749fd0a3158a0db),
    ("manifest", "e6dc4c08714283ea.art", 0x0ae0009ea849744c),
    ("manifest", "e8cee805a5692a7b.art", 0xe0958dfa9b71dca3),
    ("manifest", "ebaa2d2f7e775898.art", 0x195121823ba5d77a),
    ("manifest", "ed2a6b811636a7cf.art", 0xa879db0f7e8ea01a),
    ("manifest", "eec417b1d9481688.art", 0x10947755f980222d),
    ("manifest", "f402b1160ebb6b59.art", 0x9909988916326ce7),
    ("manifest", "f491018570b1986e.art", 0x7c27be85c1aac464),
    ("manifest", "f4f3ebe0d80642cb.art", 0x62e226fe70ba9256),
    ("manifest", "f624e6fe436607c6.art", 0xf09209289e5a771c),
    ("manifest", "f8aa22e12a872b1c.art", 0xa5829067a6c9148a),
    ("manifest", "fd4d9a55475d6706.art", 0x6538d39516eddd73),
    ("manifest", "ff3ef4586c93a84a.art", 0x3024e8a73268500f),
    ("manifest", "ffac0ce785a57438.art", 0xd904a1346657f844),
];

/// Length of the store's entry header (magic, schema, key, length,
/// checksum).
const HEADER_LEN: usize = 32;

fn hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write_raw(bytes);
    h.finish()
}

fn zero_walls(traces: &mut [PassTrace]) {
    for t in traces {
        t.wall_ns = 0;
    }
}

fn cell_bytes(c: &Compiled, r: &SimResult) -> Vec<u8> {
    let mut c = c.clone();
    zero_walls(&mut c.trace.passes);
    wire::encode_cell(&c, r)
}

/// Decodes one store payload of `kind`, zeroes its wall-clock fields and
/// re-encodes it.
fn reencode(kind: &str, payload: &[u8]) -> Vec<u8> {
    assert_eq!(kind, "manifest", "unexpected store kind");
    let mut m: Manifest = wire::decode(payload).expect("manifest payload decodes");
    zero_walls(&mut m.trace.passes);
    wire::encode(&m)
}

/// Every published entry under `root` as `(kind, file name, hash)`,
/// sorted.
fn store_entries(root: &Path) -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    for kind in std::fs::read_dir(root).expect("store root").flatten() {
        let kind_name = kind.file_name().to_string_lossy().into_owned();
        if kind_name == "tmp" {
            continue;
        }
        for f in std::fs::read_dir(kind.path()).expect("kind dir").flatten() {
            let data = std::fs::read(f.path()).expect("entry");
            assert!(data.len() >= HEADER_LEN && data[..4] == *b"BSST");
            let payload = &data[HEADER_LEN..];
            let file = f.file_name().to_string_lossy().into_owned();
            out.push((
                kind_name.clone(),
                file,
                hash(&reencode(&kind_name, payload)),
            ));
        }
    }
    out.sort();
    out
}

#[test]
fn suite_encodings_and_store_match_golden() {
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("wire-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store::configure(Some(&dir), None);
    stages::clear();
    bench::clear_cache();

    let cfgs = bench::suite_configs();
    assert_eq!(cfgs.len(), CONFIGS.len(), "suite_configs changed shape");
    let workloads: Vec<_> = names().iter().map(|n| workload(n, Input::Large)).collect();
    let rows = bench::run_matrix(&workloads, &cfgs, 1);
    let mut cells = Vec::new();
    for (name, row) in names().into_iter().zip(&rows) {
        for (label, cell) in CONFIGS.iter().zip(row) {
            let (c, r) = &**cell;
            cells.push((name, *label, hash(&cell_bytes(c, r))));
        }
    }
    let entries = store_entries(&dir);
    store::configure(None, None);
    let _ = std::fs::remove_dir_all(&dir);

    let entries_match = entries.len() == GOLDEN_ENTRIES.len()
        && entries
            .iter()
            .zip(GOLDEN_ENTRIES)
            .all(|((k, f, h), (gk, gf, gh))| k == gk && f == gf && h == gh);
    if cells.as_slice() != GOLDEN_CELLS || !entries_match {
        println!("const GOLDEN_CELLS: &[(&str, &str, u64)] = &[");
        for (w, cfg, h) in &cells {
            println!("    (\"{w}\", \"{cfg}\", 0x{h:016x}),");
        }
        println!("];");
        println!("const GOLDEN_ENTRIES: &[(&str, &str, u64)] = &[");
        for (k, f, h) in &entries {
            println!("    (\"{k}\", \"{f}\", 0x{h:016x}),");
        }
        println!("];");
        panic!("wire encodings differ from the golden table (recomputed table above)");
    }
}

/// A cell whose manifest comes off the store is recomputed into exactly
/// the cold cell: with one worker both sweeps build in the same order, so
/// every byte of `encode_cell` matches once wall times are zeroed, and the
/// recomputed program is the one its manifest fingerprints.
#[test]
fn disk_warm_suite_cells_recompute_byte_exact() {
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("wire-recompute-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store::configure(Some(&dir), None);
    stages::clear();
    bench::clear_cache();

    let cfgs = bench::suite_configs();
    let workloads: Vec<_> = names().iter().map(|n| workload(n, Input::Large)).collect();
    let cold: Vec<Vec<u8>> = bench::run_matrix(&workloads, &cfgs, 1)
        .iter()
        .flatten()
        .map(|cell| cell_bytes(&cell.0, &cell.1))
        .collect();
    stages::clear();
    bench::clear_cache();
    let before = memo::stats();
    let rebuilt = bench::run_matrix(&workloads, &cfgs, 1);
    let moved = memo::stats().since(&before);
    let manifests: Vec<_> = workloads
        .iter()
        .flat_map(|w| cfgs.iter().map(|cfg| bench::run_cached_traced(w, cfg).0))
        .collect();
    store::configure(None, None);
    let _ = std::fs::remove_dir_all(&dir);
    stages::clear();
    bench::clear_cache();

    for (kind, c) in moved.iter() {
        assert_eq!(c.corrupt, 0, "every {kind} entry was whole");
    }
    assert_eq!(
        moved.get("manifest").disk_hits,
        cold.len() as u64,
        "every manifest came off the store"
    );
    assert_eq!(moved.get("manifest").misses, 0, "and none was rebuilt");
    for (k, ((cell, bytes), m)) in rebuilt
        .iter()
        .flatten()
        .zip(&cold)
        .zip(&manifests)
        .enumerate()
    {
        let (w, cfg) = (names()[k / CONFIGS.len()], CONFIGS[k % CONFIGS.len()]);
        assert!(
            cell_bytes(&cell.0, &cell.1) == *bytes,
            "{w}/{cfg}: the recomputed cell differs from the cold one"
        );
        assert_eq!(
            program_fingerprint(&cell.0.program),
            m.program_fp,
            "{w}/{cfg}: the recomputed program is not its manifest's"
        );
    }
}
