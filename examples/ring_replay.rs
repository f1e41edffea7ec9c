//! Replay outputs beyond the makespan (Figure 4 of the paper): a timed
//! trace and an application profile, derived from the same
//! time-independent ring trace. Both are observer sinks streaming from
//! one replay.
//!
//! Run with: `cargo run --release --example ring_replay`

use titr::obs::{Profile, SharedBuf, Timeline, TimelineFormat};
use titr::platform::desc::PlatformDesc;
use titr::platform::presets;
use titr::replay::{tags, Input, Replay, ReplayConfig};
use titr::simkern::observer::Fanout;
use titr::simkern::resource::HostId;

fn main() {
    let ring = titr::npb::ring::RingConfig { nproc: 4, iters: 4, ..Default::default() };
    let trace = ring.trace();

    let desc = PlatformDesc::single(presets::bordereau_one_core(4));
    let platform = desc.build();
    let hosts: Vec<HostId> = (0..4).map(HostId).collect();
    let csv = SharedBuf::new();
    let timed = Timeline::new(csv.clone(), 4, TimelineFormat::Csv, tags::name).expect("csv header");
    let profile = Profile::new(4, tags::name, tags::is_comm);
    let sinks = Fanout::new().with(timed.sink()).with(profile.sink());
    let cfg = ReplayConfig::default();
    let out = Replay::new(Input::memory(&trace), platform, &hosts, &cfg)
        .observer(Some(Box::new(sinks)))
        .run()
        .expect("replay");
    timed.finish().expect("csv trailer");

    println!("simulated execution time: {:.6} s\n", out.simulated_time);

    // Output 1: the timed trace — the same events, now with simulated
    // timestamps.
    println!("--- timed trace (CSV, first 12 rows) ---");
    for line in String::from_utf8(csv.contents()).expect("CSV is UTF-8").lines().take(13) {
        println!("{line}");
    }

    // Output 2: the per-rank profile.
    println!("\n--- profile ---");
    print!("{}", profile.snapshot().render_text());
}
