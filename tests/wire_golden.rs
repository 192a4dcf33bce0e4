//! Golden wire encodings: the exact bytes the artifact codec writes for
//! every suite cell (the 14 MiBench workloads under the eight
//! configurations of `bench::suite_configs`) and for every entry a cold
//! sweep of that suite publishes to the persistent store — each cell as a
//! manifest plus its module, program and profile parts.
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
//! the full recomputed table. A second test reassembles every suite cell
//! from such a store and checks it against the computed cell, byte for
//! byte.

use bitspec::fingerprint::Fnv;
use bitspec::pipeline::PassTrace;
use bitspec::{memo, stages, store, wire, Compiled, Manifest, SimResult};
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
    ("manifest", "0065ea5cc866158c.art", 0x384f2502216e43cf),
    ("manifest", "00b9398e80cd6234.art", 0x47590c4067484513),
    ("manifest", "00b9c0fc1bc30bfe.art", 0xcf4b3af4f9000cf8),
    ("manifest", "021ec2ff55fbda68.art", 0x7deabd8d41935d73),
    ("manifest", "03f2d19afce56567.art", 0x507d9da07da4445b),
    ("manifest", "066956ef8bc511ba.art", 0x9a6c2099edca0833),
    ("manifest", "0828f441ee51d15b.art", 0xfb702c9bec8853dc),
    ("manifest", "0eb170399a9a58c1.art", 0xa2cfde85d7a55be0),
    ("manifest", "1698a4efaaed2d20.art", 0x3f2d56dcdb13b62e),
    ("manifest", "17799180a7bd33c7.art", 0x562a687cd8bc3fc2),
    ("manifest", "179c33f0e93fb70c.art", 0x52a9c20fcf0af05c),
    ("manifest", "1afb0eae1d0b0dfa.art", 0x5a1626f47c3b1c06),
    ("manifest", "1ff66e8251c1ac59.art", 0x073af539f6b28279),
    ("manifest", "200a28c7eaa24fc7.art", 0xafe703bf171865f8),
    ("manifest", "2206e33e43697902.art", 0x66244947131fbde1),
    ("manifest", "27dfca40a8ffb679.art", 0x139df2a2d463de59),
    ("manifest", "29937b532d3e6925.art", 0x922592111ff6985e),
    ("manifest", "2a11866bc7638f6b.art", 0x009e82d5c4ea0a2f),
    ("manifest", "2b4a411efbb48bda.art", 0x08dddc556e5df742),
    ("manifest", "2ba2558e2dd705ef.art", 0x9e9400d9e98d425b),
    ("manifest", "2bb8dcc0ceedce5c.art", 0xb69ff7486ccc7a51),
    ("manifest", "2cfad7bed21b8b05.art", 0x65afa401245ec28b),
    ("manifest", "2fbf66dee2281f4e.art", 0x83327b79f0658d14),
    ("manifest", "30de89c73cdfac19.art", 0xbeb32535e4a50296),
    ("manifest", "3246704ef2ba80dd.art", 0x88f9cff3fa6494e3),
    ("manifest", "3493bfc560e9191a.art", 0xa91e224c254194a9),
    ("manifest", "3708e1e954650055.art", 0x3cf5bf78c2afcb59),
    ("manifest", "38eedbe4c1300864.art", 0x5fbbd6536fa617d5),
    ("manifest", "3ced82e63025b19f.art", 0xe877129702cd73d0),
    ("manifest", "435b11bb2392a7d9.art", 0x737ec20866de9e54),
    ("manifest", "43d8c7d5c6fc6d88.art", 0x195a08d92186e0bc),
    ("manifest", "4416655de69ad8be.art", 0x4c0bc722011c8804),
    ("manifest", "45a35b087e8559e1.art", 0x3a98fbb7225d811b),
    ("manifest", "489234da281a6f45.art", 0x3cb19bac31abcc32),
    ("manifest", "4903422acb49b642.art", 0x151d0ffd241c5dc0),
    ("manifest", "4c823c470145a521.art", 0x42512e1d1866b4b6),
    ("manifest", "4f495ca588b3ffd4.art", 0x7d7fbc37df4a461f),
    ("manifest", "538f88a6543ea86a.art", 0xa4738d30476b8b0f),
    ("manifest", "53ab85768d2a049f.art", 0x4d0c1eb4fdbbcc24),
    ("manifest", "54c197a18b844414.art", 0x8230a97b0f0fd490),
    ("manifest", "5930b28ee0042543.art", 0xc7239b2f81f7ccf2),
    ("manifest", "61bcf5196d153e9f.art", 0x9519b1d658bdae33),
    ("manifest", "61e5c0b119af4e4b.art", 0x33727d6adb0ae24b),
    ("manifest", "642faa6553bcea91.art", 0xd2460b699736fbf3),
    ("manifest", "647a16f371730779.art", 0x8f8bdf6298b4946d),
    ("manifest", "693d735ce8fe9ba9.art", 0xb1008cfc0bb7b44e),
    ("manifest", "6a707e9e068a2c6b.art", 0x385cfda4781f5498),
    ("manifest", "6c0f044d6740f1c0.art", 0xb5e0feafc8d42c60),
    ("manifest", "6c2eae429fd896b0.art", 0x9e9a020a61489a4d),
    ("manifest", "6d65d997dce7ee9f.art", 0x3a31f2e88207955b),
    ("manifest", "6efe1dd25c284ea9.art", 0xf2c19d445f29a396),
    ("manifest", "700d5e1a05f0fee5.art", 0x59b772a670cf2c82),
    ("manifest", "701b8065e6c0456e.art", 0xe96e04ed2f4b9180),
    ("manifest", "749c1ce62b8f7cfe.art", 0x59acdea91bdbccca),
    ("manifest", "749f5b702911aa35.art", 0x1933a6a2018d74bb),
    ("manifest", "7964ae9075bcd1ca.art", 0x2005197f1fc3a069),
    ("manifest", "7ca830180a169cd0.art", 0x1b82efe8f4ad1625),
    ("manifest", "7d05d233c3700502.art", 0x70b00c107ef73afb),
    ("manifest", "7df56d1e3e5ca6b6.art", 0x2d5666f38f264b03),
    ("manifest", "81b2fbd49610edb5.art", 0xe885183575a4e237),
    ("manifest", "83efbe3e5c38247d.art", 0x36d3126aa66a09ca),
    ("manifest", "86ddcec3b03488b5.art", 0xf67bd687045e298c),
    ("manifest", "88f5206b786165d2.art", 0x947e201e84913c36),
    ("manifest", "8f75e205ebba27fc.art", 0xd266d86abd8ca980),
    ("manifest", "920ab054b05d7178.art", 0x87a41204c9365a4b),
    ("manifest", "932ad010f3bcd609.art", 0x4881dc812fb9c2b9),
    ("manifest", "9625eb75d3c83268.art", 0x804d74afa0e50eb8),
    ("manifest", "97836032306f03e6.art", 0xc5242d6a0802264a),
    ("manifest", "9825ec818d1197cd.art", 0x99ea779ba4420584),
    ("manifest", "99023f0c222a8165.art", 0xd3a7ff7b0637aa79),
    ("manifest", "9c8626723b88836a.art", 0xa7e21cdc7d97eaca),
    ("manifest", "9d09cab01ef7d1f5.art", 0xdc85539cebd3ad1b),
    ("manifest", "a31c4fe1bd27e0a0.art", 0xe3ee177858f7e391),
    ("manifest", "a346e3cb83802bb1.art", 0xdbed420b7bd3cdfb),
    ("manifest", "a5556adb41b715d3.art", 0xcf6fe29496e3d369),
    ("manifest", "a5c85532ecc0d807.art", 0x1095b492b563e570),
    ("manifest", "a7b83f1c0f417af2.art", 0xa6e9570da47fae33),
    ("manifest", "a8df4b2e1d736ac0.art", 0xc9c92818754165bb),
    ("manifest", "ab0182c7985010a9.art", 0x74d48ecc74f7cd43),
    ("manifest", "aeeb6a3285cbdf12.art", 0xcd0272891045f6a1),
    ("manifest", "b0c09e9cbedc1219.art", 0xe856745adfa7c252),
    ("manifest", "b2739e803f7fb618.art", 0x74a56d2dba9c84e6),
    ("manifest", "b2f654ea93207b34.art", 0x56ab82aa9b8b8a3a),
    ("manifest", "b3070bbd3cdd86f2.art", 0x91afb264d5d3a047),
    ("manifest", "b379be7a236aec42.art", 0xff77d1f92c3fc1ba),
    ("manifest", "b37b5bf631741eaf.art", 0xc5bd8bbaf7b62a25),
    ("manifest", "b4dbbc2049897e3d.art", 0xa6fb7b81c2ef32c7),
    ("manifest", "bbe5e3090f401148.art", 0x4075167c271970bf),
    ("manifest", "bbe97e4e67620b07.art", 0x291f9a656d50700c),
    ("manifest", "bce81d33658f0eb9.art", 0x90e4e13cf0ed77f8),
    ("manifest", "c0a72eb64795486a.art", 0x55996fcd02c8b9c3),
    ("manifest", "c4313e388824719d.art", 0xea280860bf4b6f2d),
    ("manifest", "c57d79b6e05aa969.art", 0x2bcbf2f198fa74ea),
    ("manifest", "c6890f3d5913bcd9.art", 0x95a54d5de3aec96c),
    ("manifest", "c78a3f506f4ca895.art", 0x770deecb5ebe3985),
    ("manifest", "ca3d682ec1fc0e03.art", 0xd4402b3a03331a4d),
    ("manifest", "ceb4afb009c5851c.art", 0xdf1db47f29f49f1b),
    ("manifest", "d0944cd664bad98d.art", 0x6b63789f2f52fefb),
    ("manifest", "d2c38e73cbd38eb1.art", 0xc9bc7a46a42a0328),
    ("manifest", "d741f3a97eb77885.art", 0x44b73c38c021f4a7),
    ("manifest", "d7732c78445e9cdd.art", 0xce6bdd452e72c6a9),
    ("manifest", "e5d74f9896a50530.art", 0x89c31259d6d9a7d2),
    ("manifest", "e60bbd50cc48a4a6.art", 0x22a5cc0bfdba1460),
    ("manifest", "e67e7b90898a8e01.art", 0x31b8c316a76031c7),
    ("manifest", "e9a15b4baecdd8f3.art", 0x376a5610fef8507b),
    ("manifest", "ed7881a62b66c34a.art", 0xc0a5298aca8d9c62),
    ("manifest", "f3ba0ec610f7a692.art", 0x6ad314e9052a978f),
    ("manifest", "f565c3e418f1d32e.art", 0xacba2c500be587fa),
    ("manifest", "f928703466e9d390.art", 0x0bcc1e8892718c7c),
    ("manifest", "f9d21f1a4db2ea41.art", 0xd85a0a7ee572faba),
    ("manifest", "fbda89f97b8846fd.art", 0xb5b2dc78d1b9daae),
    ("manifest", "ff2e2c1facc9822c.art", 0x04e6522819ccd3e2),
    ("module", "00a80b57838f02a2.art", 0x25b5ca7699dd32a4),
    ("module", "066ca331c0bc299f.art", 0x25ac60b33bb4e88e),
    ("module", "0a1d2b000d7d3100.art", 0x6fc33637dfed8201),
    ("module", "0c94c2558d2c857b.art", 0x3fa49659eeb67431),
    ("module", "0db7f809d820446e.art", 0x3e34f601053dbfff),
    ("module", "1557a12301258007.art", 0x616db021583d9611),
    ("module", "1b0f733a961a4df4.art", 0x537eeaba900d6507),
    ("module", "23fae867d56a73dc.art", 0xac488448f7390544),
    ("module", "2592573427fbd42a.art", 0x3246a303b678be5d),
    ("module", "286fa213e4e9dfa5.art", 0xb20dd8714fad9792),
    ("module", "2a00ed0957058c32.art", 0xcc4f8cca5079ba7e),
    ("module", "3185a2d96f14c300.art", 0x6a11032ae9789cc1),
    ("module", "332b432dad94ed80.art", 0xd440ace48c97dd97),
    ("module", "411b614ce6882449.art", 0xc44c76228fb3e895),
    ("module", "450b433021059021.art", 0x3b870fe2d2182047),
    ("module", "47501fa96bef9620.art", 0x7bf1c373a09f45b3),
    ("module", "4a51b5ced955dd3e.art", 0x3a9d4f3678990e48),
    ("module", "4c2e6035a9f47683.art", 0x5d43d29d733a9419),
    ("module", "4cff0b8c016225e1.art", 0x4c76343cc49375e4),
    ("module", "4e5f3999aa8cf824.art", 0x4bcd3c614ffb7dc3),
    ("module", "4eb54b14090b11f5.art", 0x6a020dd32f056c28),
    ("module", "5314bc0a01370e1e.art", 0xe811f1ce6b776810),
    ("module", "57515e669cde8250.art", 0xb55623e0759596e5),
    ("module", "58eaf873c341ab45.art", 0xe4859908be07dcc5),
    ("module", "5c05c6fd1006255a.art", 0x443a3061cbcad2d4),
    ("module", "5f7385b928dc8805.art", 0xcbd5f2ff88b2c772),
    ("module", "6111fc0db2b3b33d.art", 0x9b23ff35ded885ea),
    ("module", "6673023ba014dbfe.art", 0x090547efbe22c202),
    ("module", "6dd17ca0c197dc9b.art", 0x615f3d7d1b267cc3),
    ("module", "741f8ce135e1e43f.art", 0x6716d7aa21700ecd),
    ("module", "7b1749210c632632.art", 0x832f8d5f865867d8),
    ("module", "7fc0d9613926deb9.art", 0xa365a8fc103879d6),
    ("module", "8e2f73cb40c5cd28.art", 0xe83e164813110055),
    ("module", "8f162f1e22ffaab9.art", 0xcf566c8ffeac21d4),
    ("module", "8f20e886200cf662.art", 0x36e10da7b495b5ae),
    ("module", "99c39b88608ed52a.art", 0x98f099e14f9fc15c),
    ("module", "9e7c5dd141566b41.art", 0xd3886e2cb769111d),
    ("module", "a2e3f81a7f0ea21c.art", 0xde424aec1fc1ab26),
    ("module", "a615f7396ece77ca.art", 0x787e72e3abc51692),
    ("module", "a7924b79a709ee31.art", 0x1fcb8d1aba297f3a),
    ("module", "b09ab39a2a22f500.art", 0x0b90718f1217c2f1),
    ("module", "b8302d781ec89840.art", 0x8413b905af856744),
    ("module", "bbf949531999a989.art", 0x5b78bd4cc577bd13),
    ("module", "c42db0dcfb4f6213.art", 0xccbe1557f3481aa9),
    ("module", "c5d0bfc916da037e.art", 0x334bfed5d790d58b),
    ("module", "c5f3f7463eede662.art", 0x78e9cc2e6104b609),
    ("module", "c6e700f34bc4af9f.art", 0xd28d09ff04fd6990),
    ("module", "c7915fee7ff33d41.art", 0x2f40880c6b330172),
    ("module", "d86fca3274e70f91.art", 0x203d7307dd4125a1),
    ("module", "d944db3e8aa074f4.art", 0x76836fe26dfbdce4),
    ("module", "de9904b8f8449335.art", 0x65a481564f5d2e1b),
    ("module", "df8bc83907a230c7.art", 0x35cec8711cafbd0b),
    ("module", "ea53f2e26afcb386.art", 0xb628d3812015504d),
    ("module", "ea9a004e924cdfcc.art", 0xe660b1cf957a195e),
    ("module", "ee5c04c6e6a8a082.art", 0x1c48b4edbb764c23),
    ("module", "f0513126c3c97f31.art", 0x3a8870b4f51dfae4),
    ("module", "fa4dabae5f72b7f9.art", 0x659f71c3e60c2235),
    ("module", "fb562d299c9f8771.art", 0xc836df2224c45ffe),
    ("profile", "3cf3f9021b6fc0aa.art", 0xa152accdd546ccfe),
    ("profile", "3e08660d716902ca.art", 0x246194d5674939a1),
    ("profile", "5141368d3fe4397e.art", 0xe49abec964fba2f8),
    ("profile", "77621171665e4b22.art", 0x3726c41d9964f787),
    ("profile", "78db14ec4c18b0b8.art", 0xe9d975c9a2060c71),
    ("profile", "859707e1456fb720.art", 0xcf195207a0d1c89c),
    ("profile", "ad30651b00cca4ba.art", 0xb6f412d523640201),
    ("profile", "b6c365ca9f78edde.art", 0x666faf2ea8ef5dfb),
    ("profile", "ba7e2f8e775cd508.art", 0xd6ad7e7ea5681196),
    ("profile", "baa2177d61bad34b.art", 0x008eab5e76182380),
    ("profile", "bac2821f33640141.art", 0xcd7f44350fd885d7),
    ("profile", "c4bc973672cbb0e1.art", 0xa6f5de622a5f40cc),
    ("profile", "cda22f1ca2480bfe.art", 0x5a5d0df34ea53552),
    ("profile", "ddd850ce5aeb904a.art", 0x0638140cc15c91cf),
    ("program", "03f8b27f59770b19.art", 0x41472f5de91082d9),
    ("program", "07ae0f654b7e88e4.art", 0xfdd5ce420bd34972),
    ("program", "0a62276f09aef857.art", 0xfb7fd1df6dbd1913),
    ("program", "134db399173cd179.art", 0x5f6f2cc389497ccd),
    ("program", "15da31ce9dbc04ab.art", 0xbdf87fb9141f6369),
    ("program", "2299327895e27580.art", 0xe39972d38822511a),
    ("program", "26c52cf7bc93b152.art", 0xd830dd341883e5b2),
    ("program", "29421784dd83dfbf.art", 0x1ea844b08b472cb0),
    ("program", "2bae4cd730e43142.art", 0x0eea83ea8937a588),
    ("program", "2f8652deadbfe065.art", 0x6e31107897dd4386),
    ("program", "364442ef5f372c4c.art", 0xf241414808e84d34),
    ("program", "3f3deb1a4d2eb82c.art", 0xee4c0285a900a287),
    ("program", "42ce509e4a415379.art", 0xc84f4899964d9add),
    ("program", "43d7babcde6d408b.art", 0xc14776d3238ec80c),
    ("program", "46b7ddf5ab3929c6.art", 0x750c607ca70d1c3a),
    ("program", "4d8c6a05a12e3aeb.art", 0x493b3447d80f0f77),
    ("program", "4f8e2fe206634009.art", 0x06704c1c14ddb891),
    ("program", "4feb5d876e0c2c4d.art", 0x1cf979347147a92c),
    ("program", "5018cac077b30af9.art", 0xa371b877623de9e7),
    ("program", "545f47a3906dbe97.art", 0xb06315a633c09973),
    ("program", "56136ef0d2016926.art", 0xaa5631a8cef8ce43),
    ("program", "5931884403c280d4.art", 0x5715b2a96e9241b1),
    ("program", "6091e948abbf02be.art", 0x1fca2e2e910cbcfa),
    ("program", "6d6574fe669512f8.art", 0x29511408be38913d),
    ("program", "6f8984bd0a53b980.art", 0x0a8e47f104bec91e),
    ("program", "6fa0a2ffefbbc325.art", 0x54d0698a3b6c94bb),
    ("program", "70bf3438195ad735.art", 0x3746791175fc0e91),
    ("program", "7508da36611b8887.art", 0xba377ab5be3d0335),
    ("program", "78e984a6bcc12488.art", 0xf19a872790e841cb),
    ("program", "7db93e27c5b182ad.art", 0xe182ca1a31baf879),
    ("program", "83fa895be3444f89.art", 0x85ae82eca3363b01),
    ("program", "8771601b0a6a1e00.art", 0xcf9954ffd0b1d702),
    ("program", "8f427bb275122296.art", 0x70263fe45ecb6c80),
    ("program", "913de1b1889bdd66.art", 0x0e108d48a69660aa),
    ("program", "9ef241979ed6aa7a.art", 0x3b96a2363fbb2cc3),
    ("program", "a26b114e699551c4.art", 0xd1e3b0fcfa2f1beb),
    ("program", "a5db36a2622c3b3b.art", 0x49b249e3916993f0),
    ("program", "a62eed26ec0d76a9.art", 0xb87d5561eab49f52),
    ("program", "b63fb0b6eda77682.art", 0xaa905a06114fb6db),
    ("program", "b7757556c07d1992.art", 0x7366d21026c4a380),
    ("program", "beaf2224cde356b4.art", 0x8eec2cc1f784b5a1),
    ("program", "befdec77a05ed788.art", 0x95e9244908eba3c0),
    ("program", "bf5f31412bf51102.art", 0xa8b0fc3934c4d325),
    ("program", "c1ca3563433b269c.art", 0xbb50b8f47f3db403),
    ("program", "c4da146c1a75f3c4.art", 0x3b87063066e67f22),
    ("program", "c6a0ccde4f3a7266.art", 0x3e15e605e405df86),
    ("program", "c6c9ab718970c115.art", 0xf7ef4b65f961ab13),
    ("program", "c783d665155b0e62.art", 0x15a27d79c2d968be),
    ("program", "c8505861728609a5.art", 0x7bf32209e16b2de2),
    ("program", "d06125d5988dc568.art", 0x7dc44c33ac99e914),
    ("program", "d0bd992f28a51c01.art", 0xf4fd11b63c021e34),
    ("program", "d5b6b598aa23a8bf.art", 0xc0e66aeb5f6ec724),
    ("program", "d7446ef1f76171d4.art", 0x2ea9493a7f2c8971),
    ("program", "d95f29be8b6f86ce.art", 0xffeb9333ce6bbd40),
    ("program", "df158cea5108146d.art", 0xd8215c9effd669f1),
    ("program", "ea56f5cb1a55384f.art", 0x1ebcad78415e8b10),
    ("program", "eb96ab8c6307bce9.art", 0x6713f03017fac80f),
    ("program", "efd5395940d1fdf4.art", 0x27d27daa557ae620),
    ("program", "f0452058a10e34c9.art", 0x8e6279f40caa6ffa),
    ("program", "f04c0308e42b1456.art", 0x387da424bd70c122),
    ("program", "f2c7adf4eb68ee44.art", 0xf3274a538c3b81c6),
    ("program", "f692e61236d3f06a.art", 0x0a165cbe0ca70b3a),
    ("program", "f6df7f85e1e234cf.art", 0x708b24b605b75437),
    ("program", "f753b3d156d0deb9.art", 0x98eb96f0489cc105),
    ("program", "f95cdee36afbcf92.art", 0xb5c39be084e8a2f7),
    ("program", "fff3132216d85bdb.art", 0xf6f31c7ef49c23eb),
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
    let what = format!("{kind} payload decodes");
    match kind {
        "manifest" => {
            let mut m: Manifest = wire::decode(payload).expect(&what);
            zero_walls(&mut m.trace.passes);
            wire::encode(&m)
        }
        "module" => wire::encode(&wire::decode::<sir::Module>(payload).expect(&what)),
        "program" => wire::encode(&wire::decode::<backend::Program>(payload).expect(&what)),
        "profile" => {
            let mut p: stages::ProfileData = wire::decode(payload).expect(&what);
            zero_walls(&mut p.traces);
            wire::encode(&p)
        }
        _ => panic!("unexpected store kind {kind}"),
    }
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

/// A cell whose manifest comes off the store is reassembled from its
/// module, program and profile parts into exactly the computed cell: the
/// manifest carries the original trace and stage hits, so every byte of
/// `encode_cell` matches, wall times included.
#[test]
fn suite_cells_reassemble_byte_exact_from_the_store() {
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("wire-reassemble-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store::configure(Some(&dir), None);
    stages::clear();
    bench::clear_cache();

    let cfgs = bench::suite_configs();
    let workloads: Vec<_> = names().iter().map(|n| workload(n, Input::Large)).collect();
    let computed: Vec<Vec<u8>> = bench::run_matrix(&workloads, &cfgs, 2)
        .iter()
        .flatten()
        .map(|cell| wire::encode_cell(&cell.0, &cell.1))
        .collect();
    stages::clear();
    bench::clear_cache();
    let before = memo::stats();
    let rebuilt = bench::run_matrix(&workloads, &cfgs, 2);
    let moved = memo::stats().since(&before);
    store::configure(None, None);
    let _ = std::fs::remove_dir_all(&dir);
    stages::clear();
    bench::clear_cache();

    for (kind, c) in moved.iter() {
        assert_eq!(c.corrupt, 0, "every {kind} part was whole");
        assert_eq!(c.disk_misses, 0, "every {kind} lookup came off the store");
    }
    assert_eq!(
        moved.get("manifest").disk_hits,
        computed.len() as u64,
        "every cell came off the store"
    );
    for (k, (cell, bytes)) in rebuilt.iter().flatten().zip(&computed).enumerate() {
        let (w, cfg) = (names()[k / CONFIGS.len()], CONFIGS[k % CONFIGS.len()]);
        assert!(
            wire::encode_cell(&cell.0, &cell.1) == *bytes,
            "{w}/{cfg}: the reassembled cell differs from the computed one"
        );
    }
}
