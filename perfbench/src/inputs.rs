//! Seeded workload inputs. The workload seed is a benchmark argument;
//! the program under test only ever sees the documents and requests
//! built here, and the same seed always builds the same bytes.

use redeval::scenario::generate::{self, GenParams, FAMILIES};
use redeval::scenario::{builtin, ScenarioDoc};
use redeval::PatchPolicy;
use redeval_server::{OptimizeRequest, SweepRequest};

/// Per-tier count bound of the `sweep_paper` grid (8⁴ designs).
pub const SWEEP_MAX_REDUNDANCY: u32 = 8;

/// The `sweep_paper` policy axis.
pub const SWEEP_POLICIES: [&str; 2] = ["critical>8", "all"];

/// Concurrent closed-loop clients of `serve_mixed`.
pub const SERVE_CLIENTS: usize = 2;

/// Share of `serve_mixed` requests that introduce a first-seen document.
pub const NEW_DOC_SHARE: f64 = 0.2;

/// Documents a `serve_mixed` client repeats from: the last this many it
/// introduced. Their reports stay far inside the server's memory tier,
/// so a repeat is always a hit, at any request rate.
pub const WORKING_SET: usize = 256;

/// SplitMix64: a small, seedable, platform-independent generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One value derived from several: the seed of an independent stream.
pub fn mix(parts: &[u64]) -> u64 {
    let mut rng = Rng::new(0x05EE_D0FB_E4C4);
    let mut acc = 0;
    for &p in parts {
        rng = Rng::new(rng.next_u64() ^ p);
        acc = rng.next_u64();
    }
    acc
}

/// The `sweep_paper` document: the paper's case study. The workload
/// seed does not change it.
pub fn sweep_doc() -> ScenarioDoc {
    builtin::paper_case_study()
}

/// The policies of [`SWEEP_POLICIES`], parsed.
pub fn sweep_policies() -> Vec<PatchPolicy> {
    SWEEP_POLICIES
        .iter()
        .map(|p| p.parse().expect("the sweep policies are valid"))
        .collect()
}

/// The `sweep_paper` query over a (decoded) document: the full 8⁴
/// design space under two policies.
pub fn sweep_request(doc: ScenarioDoc) -> SweepRequest {
    SweepRequest {
        doc,
        patch_windows_days: None,
        policies: Some(sweep_policies()),
        max_redundancy: Some(SWEEP_MAX_REDUNDANCY),
    }
}

/// The pruned optimize search over the [`sweep_request`] design space:
/// the same document, policies and count bound. The traced `sweep_paper`
/// run measures the optimize layer with it.
pub fn sweep_optimize_request(doc: ScenarioDoc) -> OptimizeRequest {
    OptimizeRequest {
        doc,
        policies: Some(sweep_policies()),
        max_redundancy: Some(SWEEP_MAX_REDUNDANCY),
        bounds: None,
    }
}

/// The `POST /v1/sweep` body equivalent to [`sweep_request`].
pub fn sweep_body(doc: &ScenarioDoc) -> String {
    let policies: Vec<String> = SWEEP_POLICIES.iter().map(|p| format!("\"{p}\"")).collect();
    format!(
        "{{\"scenario\": {}, \"policies\": [{}], \"max_redundancy\": {SWEEP_MAX_REDUNDANCY}}}",
        doc.to_json().trim_end(),
        policies.join(", ")
    )
}

/// Document `k` of `serve_mixed` stream `stream`: a small generated
/// network (6–8 tiers, counts ≤ 3, 3 designs, 2 policies) from one of
/// the three families. Distinct `(stream, k)` pairs give distinct
/// documents, because the generator seed is part of the document name.
pub fn serve_doc(seed: u64, stream: u64, k: u64) -> ScenarioDoc {
    let h = mix(&[seed, stream, k]);
    let family = FAMILIES[(h % 3) as usize];
    let params = GenParams {
        tiers: 6 + ((h >> 8) % 3) as u32,
        redundancy: 3,
        designs: 2,
        policies: 2,
    };
    // Generator seeds stay below 2⁵³ so they survive any JSON round trip.
    generate::generate(family, &params, (h >> 11) ^ k)
}

/// One request of a client stream: which of the stream's documents it
/// sends, and whether that document is new (a `miss`) or repeated (a
/// memory-tier `hit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The document's index `k` in its stream (see [`serve_doc`]).
    pub doc: usize,
    /// Whether this is the document's first appearance.
    pub first: bool,
}

/// The endless, seeded request stream of one closed-loop client.
///
/// Each step introduces the stream's next document with probability
/// [`NEW_DOC_SHARE`] (always on the first step) and otherwise repeats
/// one of the last [`WORKING_SET`] documents it introduced. Documents
/// are rendered on demand ([`ClientStream::body`]), so a stream never
/// runs out of first-seen documents however fast the server answers, and
/// a client holds the bodies of its working set only. Streams never
/// share documents, so every step's cache disposition is known in
/// advance whatever the interleaving of clients.
#[derive(Debug, Clone)]
pub struct ClientStream {
    seed: u64,
    stream: u64,
    rng: Rng,
    docs: usize,
}

impl ClientStream {
    /// Client stream `stream` of the run seeded by `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        ClientStream {
            seed,
            stream,
            rng: Rng::new(mix(&[seed, stream, 0xC11E])),
            docs: 0,
        }
    }

    /// The canonical JSON body of the stream's document `k`.
    pub fn body(&self, k: usize) -> String {
        serve_doc(self.seed, self.stream, k as u64).to_json()
    }
}

impl Iterator for ClientStream {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        if self.docs == 0 || self.rng.unit() < NEW_DOC_SHARE {
            self.docs += 1;
            return Some(Step {
                doc: self.docs - 1,
                first: true,
            });
        }
        let back = self.rng.below(self.docs.min(WORKING_SET));
        Some(Step {
            doc: self.docs - 1 - back,
            first: false,
        })
    }
}

/// The raw bytes of one HTTP/1.1 request, as a client puts them on the
/// wire.
pub fn http_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}
