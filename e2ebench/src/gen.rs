//! Seeded input generation: every request body the benchmark sends is a
//! pure function of `(workload, seed, stream)`.
//!
//! The generator carries its own SplitMix64 so that the inputs stay
//! fixed when the program's own PRNGs change.

/// SplitMix64: tiny, fast, and the same sequence on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for one workload, seed and sub-stream (a connection).
    pub fn new(workload: &str, seed: u64, stream: u64) -> Self {
        // FNV-1a of the workload name keeps workloads on disjoint streams.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in workload.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        let mut rng = Rng(h ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.rotate_left(32));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Planes per session: the paper's three-plane stack.
pub const PLANES: usize = 3;
/// `delta_stream` grid edge (24×24 tiles).
pub const STREAM_GRID: usize = 24;
/// `session_churn` grid edge (12×12 tiles).
pub const CHURN_GRID: usize = 12;

/// One plane's tile powers: the bottom (processor) plane runs hotter.
fn plane_watts(rng: &mut Rng, tiles: usize, plane: usize) -> Vec<f64> {
    let (lo, hi) = if plane == 0 { (0.5, 3.0) } else { (0.05, 0.5) };
    (0..tiles).map(|_| rng.range(lo, hi)).collect()
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|w| format!("{w}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// A registration body: `grid`×`grid`×3, uniform via density, the
/// `segments:[10,1000]` ladder every session of this benchmark uses.
pub fn register_body(rng: &mut Rng, grid: usize, via_density: f64) -> String {
    let planes: Vec<String> = (0..PLANES)
        .map(|p| format!("[{}]", join(&plane_watts(rng, grid * grid, p))))
        .collect();
    format!(
        "{{\"nx\":{grid},\"ny\":{grid},\"planes\":[{}],\"via_density\":{via_density},\"segments\":[10,1000]}}",
        planes.join(",")
    )
}

/// The `delta_stream` registration for connection `conn`.
pub fn stream_register(seed: u64, conn: usize) -> String {
    let mut rng = Rng::new("delta_stream/register", seed, conn as u64);
    let density = rng.range(0.004, 0.006);
    register_body(&mut rng, STREAM_GRID, density)
}

/// The endless `delta_stream` update stream of one connection: 2-tile
/// `updates` on a random plane with continuous watt values, so each
/// changed tile misses the scenario cache and hits the matrix cache.
#[derive(Debug, Clone)]
pub struct UpdateStream(Rng);

impl UpdateStream {
    pub fn new(seed: u64, conn: usize) -> Self {
        Self(Rng::new("delta_stream/updates", seed, conn as u64))
    }
}

impl Iterator for UpdateStream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let rng = &mut self.0;
        let plane = rng.below(PLANES);
        let a = rng.below(STREAM_GRID * STREAM_GRID);
        let b = (a + 1 + rng.below(STREAM_GRID * STREAM_GRID - 1)) % (STREAM_GRID * STREAM_GRID);
        let (lo, hi) = if plane == 0 { (0.5, 3.0) } else { (0.05, 0.5) };
        let (wa, wb) = (rng.range(lo, hi), rng.range(lo, hi));
        Some(format!(
            "{{\"plane\":{plane},\"updates\":[[{},{},{wa}],[{},{},{wb}]]}}",
            a % STREAM_GRID,
            a / STREAM_GRID,
            b % STREAM_GRID,
            b / STREAM_GRID
        ))
    }
}

/// One `session_churn` operation. Session ids come from the server's
/// answers, so the ops name the session by its cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnOp {
    /// `POST /sessions` (starts a cycle).
    Register(String),
    /// `POST /sessions/{id}/power` with a whole-plane `tiles` body.
    Plane(String),
    /// `GET /sessions/{id}`.
    Get,
    /// `DELETE /sessions/{id}` (half the cycles; the rest are left to the
    /// 64-session quota's LRU eviction).
    Delete,
}

/// The endless op sequence of one `session_churn` connection: cycles of
/// register, one whole-plane replacement per plane, one read, and a
/// coin-flip delete. Each cycle gets a fresh via density, so every
/// registration pays a cold factorisation.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    rng: Rng,
    queue: std::collections::VecDeque<ChurnOp>,
}

impl ChurnStream {
    pub fn new(seed: u64, conn: usize) -> Self {
        Self {
            rng: Rng::new("session_churn", seed, conn as u64),
            queue: std::collections::VecDeque::new(),
        }
    }
}

impl Iterator for ChurnStream {
    type Item = ChurnOp;

    fn next(&mut self) -> Option<ChurnOp> {
        if self.queue.is_empty() {
            let rng = &mut self.rng;
            let density = rng.range(0.004, 0.006);
            self.queue
                .push_back(ChurnOp::Register(register_body(rng, CHURN_GRID, density)));
            for plane in 0..PLANES {
                let tiles = plane_watts(rng, CHURN_GRID * CHURN_GRID, plane);
                self.queue.push_back(ChurnOp::Plane(format!(
                    "{{\"plane\":{plane},\"tiles\":[{}]}}",
                    join(&tiles)
                )));
            }
            self.queue.push_back(ChurnOp::Get);
            if rng.next_u64() & 1 == 0 {
                self.queue.push_back(ChurnOp::Delete);
            }
        }
        self.queue.pop_front()
    }
}

/// The order `paper_repro` runs the nine experiments in on pass `pass`:
/// a seeded permutation, so cross-experiment cache reuse varies with the
/// seed but repeats exactly for one seed.
pub fn experiment_order(seed: u64, pass: u64) -> [usize; 9] {
    let mut rng = Rng::new("paper_repro", seed, pass);
    let mut order = [0, 1, 2, 3, 4, 5, 6, 7, 8];
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64) -> String {
        let mut out = String::new();
        for conn in 0..2 {
            out += &stream_register(seed, conn);
            out.extend(UpdateStream::new(seed, conn).take(64));
            for op in ChurnStream::new(seed, conn).take(24) {
                out += &format!("{op:?}");
            }
        }
        out += &format!("{:?}", experiment_order(seed, 3));
        out
    }

    #[test]
    fn one_seed_gives_the_same_bytes() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
    }

    #[test]
    fn two_seeds_give_different_bytes() {
        let (a, b) = (stream_bytes(7), stream_bytes(8));
        assert_ne!(a, b);
        // Every generator is seeded, not just some of them.
        assert_ne!(stream_register(7, 0), stream_register(8, 0));
        assert_ne!(
            UpdateStream::new(7, 0).next(),
            UpdateStream::new(8, 0).next()
        );
        assert_ne!(ChurnStream::new(7, 0).next(), ChurnStream::new(8, 0).next());
        assert_ne!(
            (0..8).map(|p| experiment_order(7, p)).collect::<Vec<_>>(),
            (0..8).map(|p| experiment_order(8, p)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn connections_get_disjoint_streams() {
        assert_ne!(stream_register(7, 0), stream_register(7, 1));
        assert_ne!(
            UpdateStream::new(7, 0).next(),
            UpdateStream::new(7, 1).next()
        );
    }
}
