//! Seeded input generators. Every input is a pure function of the seed,
//! so a run can be repeated exactly and a held-out seed gives fresh
//! inputs of the same shape.

use std::fmt::Write as _;

/// xorshift64, seeded through splitmix64 so nearby seeds give unrelated
/// streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut z = seed
            .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `per_mille`/1000.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

/// Processes in the online streams.
pub const PROCS: usize = 8;
/// Distinct two-clause predicate shapes the serve roster draws from.
pub const SHAPES: usize = 24;
/// Tenants on the serve roster.
pub const TENANTS: usize = 256;
/// Tenant id of the batch-closing ping. No tenant carries it, so serve
/// answers `untenant` with a warning and leaves the hub unchanged.
pub const PING: &str = "ping";

/// The clause pool of the multiplexing sweep: three clauses per process.
fn clause(index: usize) -> String {
    let p = index / 3;
    match index % 3 {
        0 => format!("x@{p} > 3"),
        1 => format!("x@{p} == 0"),
        _ => format!("x@{p} % 2 == 1"),
    }
}

/// Predicate shape `shape`: a clause pair on distinct processes, as the
/// multiplexing sweep draws them.
pub fn shape_expr(shape: usize) -> String {
    let pool = PROCS * 3;
    let a = (shape * 5) % pool;
    let mut b = (shape * 11 + 7) % pool;
    while b / 3 == a / 3 {
        b = (b + 3) % pool;
    }
    format!("{} && {}", clause(a), clause(b))
}

/// One trace stream: its text, and for the serve stream the byte ranges
/// of the batches that each end with a ping.
pub struct Stream {
    pub text: String,
    /// End offset of the prelude (header and roster) in `text`.
    pub prelude_end: usize,
    /// Byte ranges of the timed batches, each ending with its ping line.
    pub batches: Vec<(usize, usize)>,
    pub events: u64,
    pub messages: u64,
}

/// Stream shape shared by the online workloads.
pub struct StreamShape {
    pub events: u64,
    /// Events per acknowledged batch; 0 writes no pings and no roster.
    pub batch: u64,
    /// Messages per thousand events.
    pub msg_per_mille: u64,
    /// Late `msg` lines per thousand `msg` lines.
    pub late_per_mille: u64,
}

/// How far back (in events) a message's sender may lie.
const SEND_WINDOW: u64 = 48;
/// How many lines a late `msg` line may trail its receive event.
const MAX_LATE_LINES: u64 = 32;

/// Generates the online stream: `procs 8`, one integer `x` per process,
/// for serve the 256-tenant roster, then seeded integer writes. A message
/// runs from an event among the last few dozen into the fresh event; its
/// line normally follows that event at once, and a small share arrives up
/// to 32 lines late, after its receiver already has successors (the case
/// that re-times history).
pub fn online_stream(seed: u64, shape: &StreamShape) -> Stream {
    let mut rng = Rng::new(seed, 1);
    let mut text = String::new();
    let _ = writeln!(text, "procs {PROCS}");
    for p in 0..PROCS {
        let _ = writeln!(text, "var {p} x 0");
    }
    if shape.batch > 0 {
        for t in 0..TENANTS {
            let s = rng.below(SHAPES as u64) as usize;
            let _ = writeln!(text, "tenant t{t} {}", shape_expr(s));
        }
        let _ = writeln!(text, "untenant {PING}");
    }
    let prelude_end = text.len();

    // (process, position) of every event so far, in stream order.
    let mut events: Vec<(u8, u32)> = Vec::with_capacity(shape.events as usize);
    let mut positions = [0u32; PROCS];
    // Late msg lines waiting for their turn: (lines left, line).
    let mut late: Vec<(u64, String)> = Vec::new();
    let mut batches = Vec::new();
    let mut batch_start = text.len();
    let mut messages = 0u64;
    let emit = |text: &mut String, late: &mut Vec<(u64, String)>, line: &str| {
        text.push_str(line);
        text.push('\n');
        // Every emitted line brings the held lines one step closer.
        let mut i = 0;
        while i < late.len() {
            late[i].0 -= 1;
            if late[i].0 == 0 {
                let (_, held) = late.swap_remove(i);
                text.push_str(&held);
                text.push('\n');
            } else {
                i += 1;
            }
        }
    };
    for i in 0..shape.events {
        let p = rng.below(PROCS as u64) as usize;
        let value = rng.below(6);
        positions[p] += 1;
        events.push((p as u8, positions[p]));
        emit(&mut text, &mut late, &format!("event {p} x={value}"));
        if i > 0 && rng.chance(shape.msg_per_mille) {
            let back = 1 + rng.below(SEND_WINDOW.min(i));
            let (sp, spos) = events[(i - back) as usize];
            if sp as usize != p {
                messages += 1;
                let line = format!("msg {sp} {spos} {p} {}", positions[p]);
                if rng.chance(shape.late_per_mille) {
                    late.push((1 + rng.below(MAX_LATE_LINES), line));
                } else {
                    emit(&mut text, &mut late, &line);
                }
            }
        }
        if shape.batch > 0 && (i + 1) % shape.batch == 0 {
            if i + 1 == shape.events {
                // The stream ends: deliver every held line first.
                for (_, held) in late.drain(..) {
                    text.push_str(&held);
                    text.push('\n');
                }
            }
            let _ = writeln!(text, "untenant {PING}");
            batches.push((batch_start, text.len()));
            batch_start = text.len();
        }
    }
    for (_, held) in late.drain(..) {
        text.push_str(&held);
        text.push('\n');
    }
    Stream {
        text,
        prelude_end,
        batches,
        events: shape.events,
        messages,
    }
}
