//! Golden wire encodings: the exact bytes the artifact codec writes for
//! every suite cell (the 14 MiBench workloads under the eight
//! configurations of `bench::suite_configs`) and for every entry a cold
//! sweep of that suite publishes to the persistent store.
//!
//! Each cell row pins the FNV-1a hash of its `wire::encode_cell` bytes.
//! Each store row pins an entry's kind, its file name (the versioned store
//! key, so key derivation and `SCHEMA_VERSION` are covered too) and the
//! hash of its payload decoded and re-encoded. Wall-clock fields are the
//! only nondeterministic part of an artifact, so they are zeroed before
//! hashing: every `PassTrace::wall_ns` and the `FnArtifact` stage times.
//!
//! The sweep runs on one worker from cold caches, so per-build cache
//! provenance (`StageHits`, `PassTrace::cached`) is deterministic. Run in
//! release (`cargo test --release --test wire_golden`); a mismatch prints
//! the full recomputed table.

use bitspec::fingerprint::Fnv;
use bitspec::pipeline::PassTrace;
use bitspec::{stages, store, wire, Compiled, SimResult};
use mibench::{names, workload, Input};
use std::path::Path;

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
    ("cell", "00d7a41fa6459948.art", 0x31ee14c48b8e8ed6),
    ("cell", "02925993076d636a.art", 0x69aab6b82666e4dd),
    ("cell", "035662596d6c9970.art", 0x5bff6b0171576071),
    ("cell", "03a652f692ad6174.art", 0x86ea79b116d3f0c3),
    ("cell", "04b3f26512b09eb1.art", 0x3e5e8f86413df649),
    ("cell", "04d1bbba5e790e91.art", 0xf3b57afb127369fc),
    ("cell", "0616ef20ad1ba2bb.art", 0x8ed4eab49a81c013),
    ("cell", "092ffd654e1f7829.art", 0x9991412501884cd4),
    ("cell", "0b08e239f221e34b.art", 0xf32d9ef30fe1a247),
    ("cell", "0c504a1697269231.art", 0x8b96e8833920ccee),
    ("cell", "0cec009638e02861.art", 0x3344122d16b1a0e9),
    ("cell", "0dfe1925b81f3e42.art", 0x360c40987d8d6a61),
    ("cell", "0e67f322dca22d36.art", 0x987ceae8cf5771e7),
    ("cell", "113e90bfd0e7a804.art", 0x43586293f05683c6),
    ("cell", "15a0077d72c548ad.art", 0x261089b060980f53),
    ("cell", "15fec740711a52d6.art", 0xcd780f31d3caf6c4),
    ("cell", "18a44358cc511021.art", 0xf2e7bbf1e2d32dc3),
    ("cell", "2098dfc7fb9c95e8.art", 0xb2f8cc9ddb2e1ece),
    ("cell", "245984744c4cdd4f.art", 0xe9e745c8ba740b13),
    ("cell", "29924eddcb445c93.art", 0x23883f4354f87f67),
    ("cell", "2acec8683644777c.art", 0x411bf92a4c2ecadd),
    ("cell", "2b0927e8afc0492c.art", 0x78bd048f627ab0e2),
    ("cell", "2fd517b73bc0fa58.art", 0x519a68f19acba6f5),
    ("cell", "3340bae23ad1105d.art", 0x051779ecc7cef500),
    ("cell", "340d5cddbeef550e.art", 0x75c9017024c39373),
    ("cell", "348cae77d2fc2800.art", 0x7ca4451aee55cdde),
    ("cell", "36b751608a833518.art", 0xb6b167f854a12337),
    ("cell", "37de51a88970d618.art", 0x6489af78db43eef8),
    ("cell", "3866c8cf29b81799.art", 0x80549e19d55786b4),
    ("cell", "3ae8242f2b9e35e8.art", 0xe22abb404dc6e3f3),
    ("cell", "3b2fba80d1f80917.art", 0x00889283b6043f47),
    ("cell", "3cad4c007be8f149.art", 0x31ed45974f34de3d),
    ("cell", "3f6db47cb2416b9e.art", 0x790ef950f0e115d8),
    ("cell", "402989a038319724.art", 0xc9a3950a15a2530a),
    ("cell", "41884f8fb6123f27.art", 0x6409ca1fe6e08bf0),
    ("cell", "44265201bbd2f096.art", 0x6b11dbede14ad1a1),
    ("cell", "464f667cdc7a0896.art", 0x60167b55f74a806c),
    ("cell", "4b68ffe2c9c90633.art", 0x2cfd68c4fb632cbe),
    ("cell", "4c900f6d3225750a.art", 0x420e796ec045bb6b),
    ("cell", "4deabb674c7fe4cd.art", 0x1b780d2541174431),
    ("cell", "4fe9ccbbedd8c2d7.art", 0x7ccf0af68e2101a9),
    ("cell", "50bcc0ccd701c4dc.art", 0xf1d809d267d7a9a7),
    ("cell", "55fc1f7d97eb9201.art", 0xa1f75549a0861481),
    ("cell", "5825b826afdf1ea1.art", 0xd48c10f66a35d5bf),
    ("cell", "59726cf4a32fd260.art", 0x148a94e7feac1eed),
    ("cell", "5a64cfc1bb4da7e2.art", 0xbc5e8443ce87f978),
    ("cell", "5c62cacf7d677477.art", 0x66ca6c8dc380cb43),
    ("cell", "5c6c8147340703ab.art", 0xade28434f3f6bbef),
    ("cell", "607c0a687b41ce02.art", 0x8fd7f8208da430f8),
    ("cell", "63fe6640b9e85dab.art", 0x3ae33c7cbd320134),
    ("cell", "65bdb26ebcd1b70e.art", 0x37657bf4c5efcdcf),
    ("cell", "6990e3ab9cd0d9ed.art", 0x11701a7531f04ee5),
    ("cell", "6d36d7f009dd9457.art", 0x8d428c95f6010a53),
    ("cell", "6e0a6c3bd7c32e8c.art", 0x7d2663a69fbbb3fc),
    ("cell", "6fd9efc0e252bf2c.art", 0x299f96f34aac5623),
    ("cell", "705b4dd8fe1055bc.art", 0xd147a87ad8b08b7d),
    ("cell", "70c315759c37be39.art", 0x75ea7f3d58959c3b),
    ("cell", "73a40b98cd12f7e1.art", 0xaa25c2fec2d25519),
    ("cell", "7bb322cf42a61d43.art", 0xfa07b6a3cb06779e),
    ("cell", "7fa7453d96ed6516.art", 0xbc0c43e3c194dc2f),
    ("cell", "81428ef231ebb64c.art", 0xa28f008fff273c42),
    ("cell", "85d20f7a2fd0afa9.art", 0x6c3f5cee87e96bf7),
    ("cell", "8705c65f8fc41e54.art", 0xfd42451d1a352d5e),
    ("cell", "881fd25af967773b.art", 0xa052e70b166d3c99),
    ("cell", "8b3e62646ac99f83.art", 0xe124cb66c6bc10ef),
    ("cell", "8b4123b8a08c5180.art", 0x4059a5edb194d91f),
    ("cell", "8c6d5e4c21dd86c7.art", 0x46200305a0d360d8),
    ("cell", "911e437f97b4a134.art", 0x6f1e108e397c6d45),
    ("cell", "966671b0a871225a.art", 0x445351e978c6e068),
    ("cell", "9735958a5f7d8764.art", 0x4462d7f6ff57715b),
    ("cell", "98bd0b47d969d632.art", 0x9e4e6c71af0a0bbf),
    ("cell", "a4a5117ad5fed62f.art", 0x77f2425db1c4f333),
    ("cell", "a5245f437f7d7c9d.art", 0xe3819b19c4fffb42),
    ("cell", "a730e6623e94e3a0.art", 0x0a55c5038f44099a),
    ("cell", "a8e934b990d5d820.art", 0x151cc5dc9bb484db),
    ("cell", "a95a1d447ec68cfc.art", 0x46330a9a3a6e8e41),
    ("cell", "ac7c1ab93fda7519.art", 0x9a1ff9eff7f32a7c),
    ("cell", "ad48d39a3320aa2e.art", 0xb939795ba4e05154),
    ("cell", "aff12498bf5d134c.art", 0x8eac40ff75477619),
    ("cell", "b167f751dc671b29.art", 0x85e71f65890206ee),
    ("cell", "b1dbcdb947abbc8f.art", 0x2845f032b53bfbee),
    ("cell", "b6713a184e4ba42c.art", 0xb102704113473df4),
    ("cell", "b6cfcd3982f3ebcc.art", 0x0380d7c03cded136),
    ("cell", "b92aa3be22488a8d.art", 0x72c9138ff256000f),
    ("cell", "bb353f3e8455c56b.art", 0x47fa1350747fa819),
    ("cell", "be3d0bf01a1711a7.art", 0x847c3221375fbcff),
    ("cell", "be4b1a5664876bfb.art", 0xf4abef6140d30617),
    ("cell", "c07442972c924fe5.art", 0x69d639168442b118),
    ("cell", "c09bb4f2641f73b8.art", 0x20d09ab72ff43473),
    ("cell", "c29037b5707a478c.art", 0x3ab4892360e3d97d),
    ("cell", "c3421359782026f8.art", 0x3234e1fb7822dea2),
    ("cell", "c598ed3b0a08b2b3.art", 0x66f8d687d2e8efaa),
    ("cell", "ca844c27d4f632f3.art", 0xca3f87d1fc9d5caf),
    ("cell", "cbc14c02938c17ca.art", 0xee48b6965b48af53),
    ("cell", "cc4fcbdc4856b60d.art", 0xab82428e4f290cdc),
    ("cell", "ccb345b68fad40b4.art", 0x1d15f4e84b8a71fc),
    ("cell", "cfd9fb57e7b6f2a4.art", 0x2871ae13ec6ce0f5),
    ("cell", "d07cb13ad7b2a863.art", 0x2feda16b32f1be08),
    ("cell", "d0ffc0dde857fae4.art", 0xf2464a1df9f342c8),
    ("cell", "d33edffa310cfd57.art", 0x4f9129d33269b227),
    ("cell", "d43ab51c2dd745a4.art", 0x69db24fd70ba6c4b),
    ("cell", "e6233e2f52016eb0.art", 0x9fe0986f36caed11),
    ("cell", "e8de794230df4904.art", 0xcf44670445a8c6e0),
    ("cell", "e9390e4ce4717fe1.art", 0x145797ac3b64658c),
    ("cell", "ea414fd25ccfa9bc.art", 0x8fb224fae82164af),
    ("cell", "ee039bace51a9336.art", 0x5f9e37f089c1f250),
    ("cell", "f1292ce3dccefd23.art", 0x410b7ae72c4a8121),
    ("cell", "f6d6ab75038c2a11.art", 0x7ef562bfc1706d7e),
    ("cell", "f86f77530371f6dc.art", 0xb1fab37a6b7daa7d),
    ("cell", "fc2be94d5785936f.art", 0xc001ad318d06bc7a),
    ("cell", "fdb26878cb68df6e.art", 0x05950cdb8f0f1f40),
    ("cell", "fe6ddf1319f7946c.art", 0x6dba8d1c0f5e2f04),
    ("expand", "01c3dcad6eb99d24.art", 0xe7f8983920a0344a),
    ("expand", "0a6ebd394f294da4.art", 0x6df5a2f3734a108c),
    ("expand", "3791434eb301ea38.art", 0x7b5e69694e086a39),
    ("expand", "39adabacbe15ef19.art", 0x3693402f90afd37f),
    ("expand", "41362d93694cc667.art", 0x562334c8f3134a79),
    ("expand", "524c3848331fe225.art", 0x177ad0e82b73ff5d),
    ("expand", "5832c2b0914deccf.art", 0x3f3aa7b272d1e400),
    ("expand", "846998435b4417a3.art", 0x7ae90315bbb27684),
    ("expand", "85308611d3aa533f.art", 0x76337d897180002d),
    ("expand", "9b5b529bda81f9d1.art", 0xba3639b5d263c672),
    ("expand", "b5e4bd44d7388fe5.art", 0x5e807efd2f4596a8),
    ("expand", "bfca462c2deb023d.art", 0x85fdc318b5ecd1b9),
    ("expand", "e21d68a30b78d68d.art", 0x36f68b910d45351a),
    ("expand", "ef990080279ced76.art", 0xb96391466cfa18ee),
    ("fnmir", "031b41fa9b84c643.art", 0xf4745f97b028edaa),
    ("fnmir", "0589a0464f9cbde9.art", 0xb0ecdc5c0eccbb6d),
    ("fnmir", "05ebb564489b0342.art", 0xc8c06c9aae769a15),
    ("fnmir", "06c14e5883ee47d1.art", 0xb7660e426fb28ca8),
    ("fnmir", "0af1156d2df7686a.art", 0xac0ebf19d92241b9),
    ("fnmir", "0bc258ee5a632b39.art", 0x24bd84d793ae86f4),
    ("fnmir", "0e54b4cb3be5b143.art", 0x931251af3180c33e),
    ("fnmir", "1379335c6ef357b2.art", 0x3556c605d6ed3f5b),
    ("fnmir", "149c3a7f554e00ec.art", 0x3c9ac047ca13a6f5),
    ("fnmir", "16f9222acb5a9ccf.art", 0xab34664d63f4f5cc),
    ("fnmir", "1964c432f9f77207.art", 0xc9c92801c7e8d366),
    ("fnmir", "1a04bd639e659eb4.art", 0xc978b3c6673ab951),
    ("fnmir", "1bbc82be712c7d31.art", 0x7a5d9307faf0c4b0),
    ("fnmir", "1bd31b432c8aca00.art", 0xab34664d63f4f5cc),
    ("fnmir", "1c269613ab7ef9f6.art", 0xf07f2bd1223af8f3),
    ("fnmir", "1cfd51afc852f193.art", 0x8f25ac8f9748d599),
    ("fnmir", "1dfc136015c4cae0.art", 0x3e51e4a585a8396d),
    ("fnmir", "1ebdfe70ae6ef580.art", 0x565a208b0122dd33),
    ("fnmir", "1f3cf36633da1375.art", 0xc7d80b77357c726d),
    ("fnmir", "1fe7cbab10ad8013.art", 0x3c9ac047ca13a6f5),
    ("fnmir", "226a5c83115423f3.art", 0x1701e0e2f5f47a98),
    ("fnmir", "22c27de5e71039f8.art", 0x07c11aabfc74f994),
    ("fnmir", "2580fc32e893a4e3.art", 0x7f70725a5b883af1),
    ("fnmir", "27091a5d960e7550.art", 0x64c8fbbb53a1ca4a),
    ("fnmir", "27a637fb3d2e3a2f.art", 0x48081db94b2050cf),
    ("fnmir", "2ac1f05688307700.art", 0x7e3dadcdeeb66cbf),
    ("fnmir", "2ba2df70d225fc8a.art", 0xb952e366b63aacb9),
    ("fnmir", "2cfba84e97f583cb.art", 0x45aa112592c3fb75),
    ("fnmir", "2f3ab87cb0050a2a.art", 0xd95447c8e05e7593),
    ("fnmir", "3032bee35dd6918a.art", 0x7496458d715eb563),
    ("fnmir", "32e8919fa0db1522.art", 0x07c11aabfc74f994),
    ("fnmir", "34ad60f826cfdf8c.art", 0x331920f2980e3dfc),
    ("fnmir", "353463da561c8cc6.art", 0x523ae4fa789d2d34),
    ("fnmir", "36106901a7a93c2b.art", 0xc5ad79fcc6194f2b),
    ("fnmir", "36cedc1008170717.art", 0xe7102cc786c19917),
    ("fnmir", "38095749d6ce0f98.art", 0xfbc50d78486aa95b),
    ("fnmir", "39f5af141d85ae38.art", 0x330455af0e2db6d3),
    ("fnmir", "3a3c102d3ba729c5.art", 0xa92a0e2f0a02fbf5),
    ("fnmir", "3bda4fdbdcbd7639.art", 0x485a917dd628b8b5),
    ("fnmir", "3c183e75a014eb09.art", 0xbc0a80b6b83968d5),
    ("fnmir", "3c3c2dfc47f71216.art", 0xce58ba66d78c3305),
    ("fnmir", "3cb855a993c19054.art", 0xad56476a29d63344),
    ("fnmir", "3e47fe7181ce5382.art", 0x3fc043620726e442),
    ("fnmir", "40a50a4230f5ec7a.art", 0x1cc4e71eca322815),
    ("fnmir", "46c2af5d681c9e44.art", 0x4d9a2affefa5f6fa),
    ("fnmir", "4795f29778651c7d.art", 0x3fb78c0b2b1041d7),
    ("fnmir", "4807fb1a2412ec9e.art", 0x37232e2dc6eb2dd5),
    ("fnmir", "496440b7af1d9b0d.art", 0xfa66a610157c1ffb),
    ("fnmir", "499a3d8f51517b78.art", 0xb010e7a5be5b08b8),
    ("fnmir", "49d8db3557c808b2.art", 0x3b402496cdfc2c76),
    ("fnmir", "4ba24d4e24ef706b.art", 0xf3b6db4303a6cb4e),
    ("fnmir", "4d744292f455b4a5.art", 0x1a4adee0167c6933),
    ("fnmir", "4fbeaac941a46587.art", 0x357537ee25c6903f),
    ("fnmir", "58f3d9d49f86420d.art", 0x337a74f301b894f0),
    ("fnmir", "5fdb82362ae1bd25.art", 0xf9affb57708883d4),
    ("fnmir", "6000acf8afd93e59.art", 0x0bfa06ba8fa5edfc),
    ("fnmir", "601ccc4191a8824e.art", 0x3d1625b8ae52db8f),
    ("fnmir", "60606593e0b7498f.art", 0x5faad828832df7f5),
    ("fnmir", "6070ce0434a47e3f.art", 0x74ccb2b00a373e76),
    ("fnmir", "62127b71ebe700cd.art", 0x0d447fa432fff243),
    ("fnmir", "631dc01c72c49aaf.art", 0xa07a81d9e6caa80a),
    ("fnmir", "6585fe9f9d9db806.art", 0x387c092ac8c068a1),
    ("fnmir", "6725e2a65a20c101.art", 0xae2dd8d535574553),
    ("fnmir", "6dd20da0cfbf40fb.art", 0x07aa046848fd181f),
    ("fnmir", "6e5006b573a89b6f.art", 0x3a84f16965d102bf),
    ("fnmir", "6f69d2a0998129bc.art", 0x7f70725a5b883af1),
    ("fnmir", "70e116668fcd29e1.art", 0x523ae4fa789d2d34),
    ("fnmir", "732cc6ca42e04bc4.art", 0xda5667fc115e1511),
    ("fnmir", "734df80c58ebfb61.art", 0x27fc97f1c4db8a4e),
    ("fnmir", "74d28d1282e5be99.art", 0x585fbcac16247f31),
    ("fnmir", "7736ceb9aafa8819.art", 0xd3225a71c60c8002),
    ("fnmir", "7745173fb1dde275.art", 0xc8c06c9aae769a15),
    ("fnmir", "7bec62deb92a8fb0.art", 0x65271c962130f568),
    ("fnmir", "7eab1714cb9012bd.art", 0x2bc1b7de6b73b485),
    ("fnmir", "7f2ac40883e23d82.art", 0x79ff34dea97a2e54),
    ("fnmir", "811cdfa9c03ce595.art", 0x0777d074d3d891b8),
    ("fnmir", "822b19fff586e0db.art", 0x93d99c3206e32eb5),
    ("fnmir", "8620e768849a6202.art", 0x91da24131d517835),
    ("fnmir", "86864af0ef838152.art", 0x9cc324821b11bbd8),
    ("fnmir", "87482f5d18bbf929.art", 0x707b42a5c93d96a4),
    ("fnmir", "89037e317af22c66.art", 0x3722594771bdb960),
    ("fnmir", "89dafe487293bc94.art", 0x818064e80fad20ec),
    ("fnmir", "8a090b605bd03333.art", 0x2bb7597c0544f3c7),
    ("fnmir", "8a26d1399d51c1b3.art", 0x3a84f16965d102bf),
    ("fnmir", "8a4836bcffc8b6ee.art", 0x93d99c3206e32eb5),
    ("fnmir", "8acade4810f06ad6.art", 0x315674171a4e9816),
    ("fnmir", "8b2bc3492996a2dd.art", 0xe18276d8460dfc17),
    ("fnmir", "8fffc50bedeb23ae.art", 0x295db5ce9be3bbb6),
    ("fnmir", "96220627ceb3bc1b.art", 0x50e116f2f121338e),
    ("fnmir", "96bed4b6f510a255.art", 0x8506efa34ada048c),
    ("fnmir", "976893b6eee512cc.art", 0x78917a4872de35f5),
    ("fnmir", "99c2156f0602aa69.art", 0xebf456abbf8d8806),
    ("fnmir", "9b93d1edd39f1307.art", 0x5d2bd8721439579e),
    ("fnmir", "9cbd85fcd117018b.art", 0xd3a8108e0976a3d8),
    ("fnmir", "9f677102010d1cd5.art", 0x1701e0e2f5f47a98),
    ("fnmir", "9ff965de6c1755dc.art", 0x330455af0e2db6d3),
    ("fnmir", "a0770f6ecb2a96f4.art", 0x689ca61fadabfe78),
    ("fnmir", "a1f3c7618eaf5591.art", 0x4226f16fd1cdd309),
    ("fnmir", "a4efdc1682c48cfb.art", 0x22f50ab395afea79),
    ("fnmir", "a656ec0f681da838.art", 0xe547385e74fb1933),
    ("fnmir", "a8cab11d11be990e.art", 0x955bd25d37a852e3),
    ("fnmir", "ac6582b41084e5fe.art", 0xe6ca90bc13821763),
    ("fnmir", "ac6e401e03d39588.art", 0xc5ad79fcc6194f2b),
    ("fnmir", "af0492fb3345eb86.art", 0x5ccec56d219ae6a0),
    ("fnmir", "b0548b25fbb61509.art", 0xee08202f7dac7687),
    ("fnmir", "b341c96fa85f8347.art", 0xce1a5937fe4a501b),
    ("fnmir", "b691296e615ea7e5.art", 0x970f90db6c8e8b10),
    ("fnmir", "b7046ac0f0443c09.art", 0x12956565b925400b),
    ("fnmir", "b80708a5fd52d173.art", 0x78c8ac10ddf61164),
    ("fnmir", "b8089d0704916205.art", 0x8c26e492636029c6),
    ("fnmir", "b95b98058cf37864.art", 0x594840bcc00dc7e9),
    ("fnmir", "bd5736e31ef60a73.art", 0x3722594771bdb960),
    ("fnmir", "bfe16b85cf173aea.art", 0xddaebb72c5fc7d9b),
    ("fnmir", "c0f8dc38e03730a9.art", 0x9fbfb6a192c10be8),
    ("fnmir", "c2d7c2d483883763.art", 0x655301bbb47fe4fe),
    ("fnmir", "c343dfb5764a5d3a.art", 0x4468be7083b59505),
    ("fnmir", "c50647a3dc1c9509.art", 0x95eefffb7a1122ed),
    ("fnmir", "c6cad693a193b2d0.art", 0x96dab4319e9528d2),
    ("fnmir", "c7f881df830ceb83.art", 0xa31e339e9f496532),
    ("fnmir", "c8c49e67db490bd2.art", 0x4534007ee7db3a18),
    ("fnmir", "c9c54e7a5c12ee49.art", 0x9b9b8584ba57cadf),
    ("fnmir", "cb08b54969889d63.art", 0x0852b718927fa320),
    ("fnmir", "cccd955d38488201.art", 0x7496458d715eb563),
    ("fnmir", "cef8fef20a7cd192.art", 0x8dbe7ba03f7c4e3c),
    ("fnmir", "cf8abe3a23278864.art", 0x5fc08449665ee1a2),
    ("fnmir", "d10c22f5c7bf56b4.art", 0xa9260d4664707719),
    ("fnmir", "d1d5ac296ead029f.art", 0x0acc3f06945bf8ee),
    ("fnmir", "d268dc44b69471f1.art", 0xe36c250f13bf21fe),
    ("fnmir", "d5f11771b6a975c1.art", 0x218bf040e63bb2b9),
    ("fnmir", "d839b5b57becf3d8.art", 0x689ca61fadabfe78),
    ("fnmir", "db2b99c8c6cdb956.art", 0xddaebb72c5fc7d9b),
    ("fnmir", "dc291eb1cbe36b6f.art", 0x6f8914692e45d370),
    ("fnmir", "dd07c6b4ff68010f.art", 0xa91281a58af1a07e),
    ("fnmir", "de83704ffbb8f3f0.art", 0x5a6f7e6dcd09371c),
    ("fnmir", "e0fab2413687834e.art", 0x912434e4d8975ae9),
    ("fnmir", "e3994a866111c3ee.art", 0x295db5ce9be3bbb6),
    ("fnmir", "e3c6c5dd5c07f151.art", 0x78c8ac10ddf61164),
    ("fnmir", "e409a13f09d2b0be.art", 0x1238ccf939917bb3),
    ("fnmir", "e43a46232ce74eab.art", 0x92b7058667473c46),
    ("fnmir", "e4983c49ffa80c26.art", 0xc772c6cdb6c47189),
    ("fnmir", "e5f4aebefaeeaf0a.art", 0xda5667fc115e1511),
    ("fnmir", "e607026107a189e3.art", 0xed7e4aaf1e77de8e),
    ("fnmir", "e716f912022cfcf0.art", 0x16e63d5d78bbcc46),
    ("fnmir", "e779d3862cfd34f6.art", 0x78917a4872de35f5),
    ("fnmir", "ec495768d59f27fe.art", 0xfbc50d78486aa95b),
    ("fnmir", "ec731d9710592bf6.art", 0xea4f51b3f475c96b),
    ("fnmir", "f06afef4f7f40403.art", 0x932f5288fe102190),
    ("fnmir", "f0fb17cbedd22b0f.art", 0xe547385e74fb1933),
    ("fnmir", "f133bf5e916f27f9.art", 0x5b68ef3b87899b2c),
    ("fnmir", "f6ca70dd3d42cedd.art", 0xe36c250f13bf21fe),
    ("fnmir", "f7d23d7edee59bf2.art", 0x2a49a20224b79efa),
    ("fnmir", "fa18e87c8367a64c.art", 0xb64152d00d3530e1),
    ("fnmir", "fb0b4b3433f411b9.art", 0x142a4f28e208952b),
    ("fnmir", "fc4a7a78263fd223.art", 0xeed897c3ccf66f8e),
    ("fnmir", "fdfe2c624ec6e51b.art", 0xe06cb9c9489ec9c0),
    ("gate", "36286e4255585240.art", 0xd4c007a612a90a16),
    ("gate", "3c8f7d545d7f8c4f.art", 0xb0de63d19e3466df),
    ("gate", "49cdff6d75a67d2c.art", 0x10570aab73861fe4),
    ("gate", "6f60a51f19261330.art", 0xb6d9774813967967),
    ("gate", "727e60e16b874e6d.art", 0x831408f177864611),
    ("gate", "74f7b1d70618f414.art", 0x03aebc3c30110bd2),
    ("gate", "8058314cd5d5aa1f.art", 0x8bdd72ba689e351a),
    ("gate", "9034b85ad3733c99.art", 0xba5b6833f53e3253),
    ("gate", "aa529f89793870ef.art", 0x0074bc23409d0dfd),
    ("gate", "b8c9628b2b544ab7.art", 0xeade797110240812),
    ("gate", "c1c73eb238b59fff.art", 0x114a141a349d3965),
    ("gate", "d5bd628f3b96143d.art", 0x03d68c67c5ff1cea),
    ("gate", "edd5807e27a40748.art", 0x09f8781910867d32),
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
        "cell" => {
            let (c, r) = wire::decode_cell(payload).expect(&what);
            cell_bytes(&c, &r)
        }
        "expand" => {
            let mut s: stages::SirStage = wire::decode(payload).expect(&what);
            zero_walls(&mut s.traces);
            wire::encode(&s)
        }
        "profile" => {
            let mut p: stages::ProfileData = wire::decode(payload).expect(&what);
            zero_walls(&mut p.traces);
            wire::encode(&p)
        }
        "gate" => {
            let mut g: stages::GateRef = wire::decode(payload).expect(&what);
            zero_walls(&mut g.traces);
            wire::encode(&g)
        }
        "fnmir" => {
            let mut a: backend::FnArtifact = wire::decode(payload).expect(&what);
            a.t_isel = 0;
            a.t_mirv = 0;
            a.t_ra = 0;
            a.t_rav = 0;
            a.t_emit = 0;
            wire::encode(&a)
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
