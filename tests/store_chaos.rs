//! GC under deterministic disk chaos: with torn writes, stale temps,
//! `ENOSPC` and partial reads injected into every facade I/O under the
//! store root, `gc()` must **never orphan a live object** (a name that
//! still resolves always returns its digest-verified content) and
//! **never resurrect a dead one** (an unreferenced object reclaimed by
//! a clean sweep stays gone). The store's defenses under test: writes
//! verify by raw read-back, and every destructive decision (sweep,
//! corrupt verdict) re-reads raw, so injected read faults can degrade
//! throughput but never delete live data.

use gdf::store::{Digest, Store};
use gdf_chaos::{ChaosDisk, ChaosGuard, ChaosSchedule};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdf-store-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gc_under_disk_chaos_never_orphans_live_or_resurrects_dead() {
    for seed in 0..12u64 {
        let root = temp_dir(&format!("gc-{seed}"));
        let store = Store::open(&root).expect("open");

        // Clean pre-population: four live (named) objects, three dead
        // (unreferenced) ones.
        let mut live: Vec<(String, Digest)> = Vec::new();
        for i in 0..4 {
            let text = format!("{{\"live\": {i}, \"seed\": {seed}}}\n");
            let name = format!("live-{i}");
            let digest = store.publish(&name, &text).expect("publish");
            live.push((name, digest));
        }
        let dead: Vec<Digest> = (0..3)
            .map(|i| {
                store
                    .put(&format!("{{\"dead\": {i}, \"seed\": {seed}}}\n"))
                    .expect("put")
            })
            .collect();

        // Chaotic workload: puts, publishes, unlinks and gc passes all
        // racing injected faults. Individual operations may fail — the
        // invariants below must hold regardless.
        let schedule = Arc::new(ChaosSchedule::new(0x6C1D ^ seed, 0.25));
        let guard = ChaosGuard::install(ChaosDisk::new(Arc::clone(&schedule), &root));
        for i in 0..10 {
            let _ = store.put(&format!("{{\"chaos\": {i}}}\n"));
            let _ = store.publish(&format!("chaos-{i}"), &format!("{{\"named\": {i}}}\n"));
            let _ = store.unlink(&format!("chaos-{}", i / 2));
            let _ = store.gc();
        }
        drop(guard);
        assert!(schedule.injected() > 0, "seed {seed}: chaos never fired");

        // Live objects survived every chaotic gc, content intact.
        for (name, digest) in &live {
            let text = store
                .get_named(name)
                .unwrap_or_else(|e| panic!("seed {seed}: live name {name} unreadable: {e}"))
                .unwrap_or_else(|| panic!("seed {seed}: live name {name} orphaned by gc"));
            assert_eq!(
                Digest::of_text(&text),
                *digest,
                "seed {seed}: {name} resolved to corrupted content"
            );
        }

        // A clean sweep reclaims exactly the unreferenced objects...
        store.gc().expect("clean gc");
        for digest in &dead {
            assert!(
                !store.contains(digest),
                "seed {seed}: dead object {digest} survived a clean gc"
            );
        }
        // ...and they stay dead: another pass cannot bring them back.
        store.gc().expect("second clean gc");
        for digest in &dead {
            assert!(
                !store.contains(digest),
                "seed {seed}: dead object {digest} resurrected"
            );
        }
        // The store still works after the storm: round-trip a fresh doc.
        let digest = store
            .publish("after-the-storm", "{\"ok\": true}\n")
            .expect("publish");
        assert_eq!(
            store.get_named("after-the-storm").expect("get").as_deref(),
            Some("{\"ok\": true}\n")
        );
        assert!(store.contains(&digest));
        let _ = std::fs::remove_dir_all(&root);
    }
}
