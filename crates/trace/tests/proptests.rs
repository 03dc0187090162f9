//! Property-based tests for the trace substrate: the text format
//! round-trips, the builder always produces discipline-valid traces,
//! statistics are consistent, and the `.ftc` analysis-cache sidecar
//! codec round-trips and rejects every corruption.

use freshtrack_trace::{
    read_trace, write_trace, AnalysisCache, CacheConfig, CacheEntry, EventKind, ResumePoint,
    TraceBuilder,
};
use proptest::prelude::*;

/// Raw fuel interpreted into a valid trace (same scheme as the core
/// crate's equivalence tests).
fn build(fuel: &[(u8, u8, u8)], threads: u8, locks: u8, vars: u8) -> freshtrack_trace::Trace {
    let mut b = TraceBuilder::new();
    let var_ids: Vec<_> = (0..vars).map(|v| b.var(&format!("v{v}"))).collect();
    let lock_ids: Vec<_> = (0..locks).map(|l| b.lock(&format!("m{l}"))).collect();
    let mut holder: Vec<Option<u8>> = vec![None; locks as usize];
    let mut forked: Vec<bool> = vec![false; threads as usize];

    for &(t, action, operand) in fuel {
        let t = t % threads;
        match action % 6 {
            0 => {
                let l = (operand % locks) as usize;
                if holder[l].is_none() {
                    holder[l] = Some(t);
                    b.acquire(t as u32, lock_ids[l]);
                } else {
                    b.read(t as u32, var_ids[(operand % vars) as usize]);
                }
            }
            1 => {
                if let Some(l) = holder.iter().position(|&h| h == Some(t)) {
                    holder[l] = None;
                    b.release(t as u32, lock_ids[l]);
                } else {
                    b.write(t as u32, var_ids[(operand % vars) as usize]);
                }
            }
            2 => {
                b.read(t as u32, var_ids[(operand % vars) as usize]);
            }
            3 => {
                b.write(t as u32, var_ids[(operand % vars) as usize]);
            }
            4 => {
                let child = operand % threads;
                if child != t && !forked[child as usize] {
                    forked[child as usize] = true;
                    b.fork(t as u32, child as u32);
                } else {
                    b.read(t as u32, var_ids[(operand % vars) as usize]);
                }
            }
            _ => {
                let child = operand % threads;
                if child != t && forked[child as usize] {
                    forked[child as usize] = false;
                    b.join(t as u32, child as u32);
                } else {
                    b.write(t as u32, var_ids[(operand % vars) as usize]);
                }
            }
        }
    }
    b.build()
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..24)
}

fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(b'a'..=b'z', 0..6)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ascii range"))
}

fn arb_entry() -> impl Strategy<Value = CacheEntry> {
    (
        (
            any::<u32>(),
            any::<u64>(),
            0u64..1 << 40,
            any::<u64>(),
            any::<u64>(),
        ),
        (0usize..1000, 0usize..1000),
        (
            prop::collection::vec(arb_name(), 0..4),
            prop::collection::vec(arb_name(), 0..4),
        ),
        arb_payload(),
    )
        .prop_map(|(ids, watermarks, names, reports)| {
            let (crc32, offset, byte_len, event_count, first_event_id) = ids;
            let (locks_before, vars_before) = watermarks;
            let (new_locks, new_vars) = names;
            CacheEntry {
                crc32,
                offset,
                byte_len,
                event_count,
                first_event_id,
                locks_before,
                vars_before,
                new_locks,
                new_vars,
                reports,
            }
        })
}

fn arb_resume_point() -> impl Strategy<Value = ResumePoint> {
    (any::<u32>(), arb_payload(), arb_payload()).prop_map(|(threads, discipline, state)| {
        ResumePoint {
            threads,
            discipline,
            state,
        }
    })
}

fn arb_cache() -> impl Strategy<Value = AnalysisCache> {
    (
        (arb_name(), arb_name(), arb_name(), any::<u32>(), 1u32..8),
        prop::collection::vec(arb_entry(), 0..6),
        prop::collection::vec(arb_resume_point(), 2),
    )
        .prop_map(
            |((engine, sampler, options, state_version, jobs), entries, mut resume)| {
                resume.truncate(entries.len().min(2));
                AnalysisCache {
                    config: CacheConfig {
                        engine,
                        sampler,
                        options,
                        state_version,
                        jobs,
                    },
                    entries,
                    resume,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sidecar_round_trips(cache in arb_cache()) {
        let encoded = cache.encode();
        let decoded = AnalysisCache::decode(&encoded).expect("own encoding must decode");
        prop_assert_eq!(decoded, cache);
    }

    #[test]
    fn sidecar_bit_flips_are_rejected_or_visibly_different(
        cache in arb_cache(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut mutant = cache.encode();
        let pos = pos % mutant.len();
        mutant[pos] ^= 1 << bit;
        // A corrupted sidecar must never silently decode back to the
        // original state — that would let a cache mask trace damage.
        if let Ok(decoded) = AnalysisCache::decode(&mutant) {
            prop_assert!(decoded != cache, "flip at byte {} bit {} went unnoticed", pos, bit);
        }
    }

    #[test]
    fn sidecar_truncations_are_rejected(
        cache in arb_cache(),
        cut in any::<usize>(),
    ) {
        let encoded = cache.encode();
        let cut = cut % encoded.len();
        prop_assert!(AnalysisCache::decode(&encoded[..cut]).is_err());
    }

    #[test]
    fn builder_traces_always_validate(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..200),
    ) {
        let trace = build(&fuel, 5, 4, 3);
        prop_assert!(trace.validate().is_ok());
    }

    #[test]
    fn text_format_round_trips(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..150),
    ) {
        let trace = build(&fuel, 4, 3, 3);
        let text = write_trace(&trace);
        let parsed = read_trace(&text).expect("parses");
        prop_assert_eq!(trace.len(), parsed.len());
        // The writer is a normal form: writing the parse reproduces it.
        prop_assert_eq!(&text, &write_trace(&parsed));
        prop_assert!(parsed.validate().is_ok());
        // Event shape is preserved position by position.
        for (a, b) in trace.events().iter().zip(parsed.events()) {
            prop_assert_eq!(a.tid, b.tid);
            prop_assert_eq!(
                std::mem::discriminant(&a.kind),
                std::mem::discriminant(&b.kind)
            );
        }
    }

    #[test]
    fn stats_partition_event_count(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..150),
    ) {
        let trace = build(&fuel, 4, 3, 3);
        let s = trace.stats();
        prop_assert_eq!(s.events, trace.len());
        prop_assert_eq!(s.reads + s.writes + s.acquires + s.releases, s.events);
        prop_assert_eq!(s.accesses() + s.syncs(), s.events);
        // Locking discipline implies balanced-or-pending acquires.
        prop_assert!(s.releases <= s.acquires);
        prop_assert_eq!(s.threads, trace.thread_count());
    }

    #[test]
    fn every_acquire_release_pair_is_well_formed(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..200),
    ) {
        // Replay the trace and confirm release always matches the holder
        // — i.e. `validate` agrees with a straightforward re-simulation.
        let trace = build(&fuel, 5, 4, 3);
        let mut holder = vec![None; trace.lock_count()];
        for event in trace.events() {
            match event.kind {
                EventKind::Acquire(l) => {
                    prop_assert!(holder[l.index()].is_none());
                    holder[l.index()] = Some(event.tid);
                }
                EventKind::Release(l) => {
                    prop_assert_eq!(holder[l.index()], Some(event.tid));
                    holder[l.index()] = None;
                }
                _ => {}
            }
        }
    }
}
