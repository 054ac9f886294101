//! Seeded inputs: the random source, the request mixes and the open-loop
//! arrival schedule. Everything here is a pure function of the seed, so
//! one seed always replays the same requests in the same order.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for sub-purpose `tag` of the same seed.
    pub fn derive(seed: u64, tag: u64) -> Self {
        let mut r = Self::new(seed.wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The tolerance ladder every workload draws from (relative to the QoI's
/// value range).
pub const TOLS: [f64; 5] = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6];

/// retrieve-cold: an analyst's walk of 1–3 non-increasing tolerances, as
/// indices into [`TOLS`]: one walk of each length, together covering
/// every tolerance.
const COLD_PATTERNS: [&[usize]; 3] = [&[2], &[1, 3], &[0, 2, 4]];

/// retrieve-cold targets: three single-QoI requests and one multi-target
/// request sharing the velocity fields.
pub const COLD_TARGETS: [&[&str]; 4] = [&["V"], &["KE"], &["Vx2"], &["V", "KE", "Vx2"]];

/// Schemes the file archives are built under, by index.
pub const COLD_SCHEMES: usize = 3;

/// Datasets a retrieve-cold run generates from its seed: every request
/// runs on each of them alike, so one seed's data moves the result less.
pub const COLD_DATASETS: usize = 3;

/// One analyst of retrieve-cold: which archive (dataset and scheme),
/// which targets, and the tolerances walked on one cold session.
#[derive(Debug, Clone, PartialEq)]
pub struct Walk {
    pub dataset: usize,
    pub scheme: usize,
    pub target: usize,
    pub tols: Vec<f64>,
}

/// The analysts in order: decks of every dataset × scheme × target ×
/// pattern combination (108 analysts, 216 requests), each deck shuffled
/// by the seed. Runs deal whole decks, so the mix of cheap and expensive
/// requests is the same from seed to seed; only the order and the data
/// change.
pub fn cold_walks(seed: u64, decks: usize) -> Vec<Walk> {
    let mut rng = Rng::derive(seed, 1);
    let mut out = Vec::new();
    for _ in 0..decks {
        let mut deck = Vec::new();
        for dataset in 0..COLD_DATASETS {
            for scheme in 0..COLD_SCHEMES {
                for target in 0..COLD_TARGETS.len() {
                    for pattern in COLD_PATTERNS {
                        deck.push(Walk {
                            dataset,
                            scheme,
                            target,
                            tols: pattern.iter().map(|&i| TOLS[i]).collect(),
                        });
                    }
                }
            }
        }
        rng.shuffle(&mut deck);
        out.extend(deck);
    }
    out
}

/// serve-shared targets over the GE QoIs of Eq. 1–6: each QoI alone, plus
/// two multi-target requests.
pub const SHARED_TARGETS: [&[&str]; 8] = [
    &["VTOT"],
    &["T"],
    &["C"],
    &["Mach"],
    &["PT"],
    &["mu"],
    &["VTOT", "Mach"],
    &["T", "mu"],
];

/// serve-shared tolerances, skewed loose: four in ten requests ask 1e-2,
/// one in ten asks the deepest (1e-5), which warm-up already reached.
const SHARED_TOL_DECK: [usize; 10] = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3];

/// The deepest tolerance serve-shared asks for.
pub const SHARED_DEEPEST: f64 = 1e-5;

/// One serve-shared retrieve: its user session and what it asks.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedRequest {
    /// Due time in seconds after the timed phase starts.
    pub due_s: f64,
    /// Global user-session number; a new number means a fresh `OPEN`.
    pub session: usize,
    pub target: usize,
    pub tol: f64,
}

/// The open-loop schedule for `streams` connections: `n` Poisson arrivals
/// over `seconds` (given the count, Poisson arrival times are independent
/// uniforms), each sent on a connection chosen at random, so every
/// connection sees a Poisson stream of its own. Each connection serves
/// user sessions of 1–3 retrieves with non-increasing tolerances.
pub fn shared_schedule(
    seed: u64,
    n: usize,
    seconds: f64,
    streams: usize,
) -> Vec<Vec<SharedRequest>> {
    let mut rng = Rng::derive(seed, 2);
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut per_stream: Vec<Vec<f64>> = vec![Vec::new(); streams];
    for t in times {
        per_stream[rng.below(streams)].push(t);
    }
    let mut tol_deck = Vec::new();
    let mut next_session = 0;
    per_stream
        .into_iter()
        .map(|dues| {
            let mut out = Vec::with_capacity(dues.len());
            let mut i = 0;
            while i < dues.len() {
                let len = (1 + rng.below(3)).min(dues.len() - i);
                let mut tols: Vec<f64> = (0..len)
                    .map(|_| {
                        if tol_deck.is_empty() {
                            tol_deck = SHARED_TOL_DECK.to_vec();
                            rng.shuffle(&mut tol_deck);
                        }
                        TOLS[tol_deck.pop().expect("refilled")]
                    })
                    .collect();
                tols.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
                for tol in tols {
                    out.push(SharedRequest {
                        due_s: dues[i],
                        session: next_session,
                        target: rng.below(SHARED_TARGETS.len()),
                        tol,
                    });
                    i += 1;
                }
                next_session += 1;
            }
            out
        })
        .collect()
}

/// Ingest: the scheme order of each cycle, a seeded permutation per cycle.
pub fn ingest_order(seed: u64, cycles: usize) -> Vec<usize> {
    let mut rng = Rng::derive(seed, 3);
    let mut out = Vec::new();
    for _ in 0..cycles {
        let mut c = [0, 1, 2];
        rng.shuffle(&mut c);
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = shared_schedule(11, 400, 10.0, 2);
        assert_eq!(a, shared_schedule(11, 400, 10.0, 2));
        assert_ne!(a, shared_schedule(12, 400, 10.0, 2));
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 400);
        for stream in &a {
            assert!(stream.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            assert!(stream.iter().all(|r| (0.0..10.0).contains(&r.due_s)));
            // tolerances never loosen within a user session
            for w in stream.windows(2) {
                if w[0].session == w[1].session {
                    assert!(w[1].tol <= w[0].tol);
                }
            }
        }
        // the mean gap of a Poisson stream of 400 in 10 s is near 25 ms
        let all: usize = a.iter().map(Vec::len).sum();
        assert!((all as f64 / 10.0 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn request_mix_is_deterministic_per_seed() {
        assert_eq!(cold_walks(5, 2), cold_walks(5, 2));
        assert_ne!(cold_walks(5, 1), cold_walks(6, 1));
        assert_eq!(ingest_order(5, 4), ingest_order(5, 4));
        // every deck holds each combination exactly once
        let deck = cold_walks(9, 1);
        assert_eq!(
            deck.len(),
            COLD_DATASETS * COLD_SCHEMES * COLD_TARGETS.len() * COLD_PATTERNS.len()
        );
        let requests: usize = deck.iter().map(|w| w.tols.len()).sum();
        assert_eq!(requests, 2 * deck.len());
        for w in &deck {
            assert!(w.tols.windows(2).all(|p| p[1] <= p[0]));
        }
        let order = ingest_order(3, 10);
        for c in order.chunks(3) {
            let mut s = c.to_vec();
            s.sort();
            assert_eq!(s, vec![0, 1, 2]);
        }
    }
}
