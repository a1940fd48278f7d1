//! Fill-path edge cases of the CWF heterogeneous backend, checked
//! against the [`FillOracle`] MSHR/fill contract:
//!
//! * critical word at the *last* burst beat (word 7),
//! * zero-offset critical word (word 0, the common fast-path),
//! * ordering inversion — the slow-channel part arriving before the
//!   fast-channel word when the fast queue is congested.
//!
//! Each healthy scenario is followed by a seeded fault on the same event
//! stream proving the oracle check it leans on is not vacuous.

use cwf_core::{CwfConfig, HeteroCwfMemory, PlacementPolicy};
use cwf_verify::{FillOracle, OracleRule};
use mem_ctrl::{LineRequest, MainMemory, MemEvent, Token};

/// Drive `mem` over `[from, to)` and collect every event.
fn run(mem: &mut HeteroCwfMemory, from: u64, to: u64, ev: &mut Vec<MemEvent>) {
    for now in from..to {
        mem.tick(now);
        mem.drain_events(now, ev);
    }
}

/// Feed a submit + event stream through a fresh [`FillOracle`] and return
/// its violations.
fn oracle_check(submits: &[(Token, u64)], events: &[MemEvent]) -> Vec<cwf_verify::OracleViolation> {
    let mut f = FillOracle::new();
    for &(tok, at) in submits {
        f.observe_submit(tok, at);
    }
    let mut out = Vec::new();
    for e in events {
        f.observe_event(e, &mut out);
    }
    f.finalize(&mut out);
    out
}

/// One `WordsAvailable` event: its cycle and word mask.
type Arrival = Option<(u64, u8)>;

/// The fast/slow `WordsAvailable` pair and the fill for one token.
fn parts(ev: &[MemEvent], tok: Token) -> (Arrival, Arrival, Option<u64>) {
    let mut fast = None;
    let mut slow = None;
    let mut fill = None;
    for e in ev {
        match *e {
            MemEvent::WordsAvailable { token, at, words, served_fast } if token == tok => {
                if served_fast {
                    fast = Some((at, words));
                } else {
                    slow = Some((at, words));
                }
            }
            MemEvent::LineFilled { token, at } if token == tok => fill = Some(at),
            _ => {}
        }
    }
    (fast, slow, fill)
}

#[test]
fn critical_word_at_last_burst_beat_is_served_fast_under_oracle_placement() {
    // Word 7 is the last beat of the 8-word burst. Oracle placement moves
    // it to the fast DIMM; the fill contract must hold regardless.
    let mut mem = HeteroCwfMemory::new(CwfConfig::rl().with_policy(PlacementPolicy::Oracle));
    let tok = mem.try_submit(&LineRequest::demand_read(0x10_000, 7, 0), 0).unwrap().unwrap();
    let mut ev = Vec::new();
    run(&mut mem, 0, 10_000, &mut ev);

    let (fast, slow, fill) = parts(&ev, tok);
    let (fast_at, fast_words) = fast.expect("fast part");
    let (slow_at, slow_words) = slow.expect("slow part");
    let fill_at = fill.expect("line fill");
    assert_ne!(fast_words & 0x80, 0, "word 7 must ride the fast channel");
    assert_eq!(fast_words | slow_words, 0xFF);
    assert_eq!(fast_words & slow_words, 0, "fast/slow parts are disjoint");
    assert!(fast_at < slow_at, "the whole point: the critical beat arrives early");
    assert_eq!(fill_at, fast_at.max(slow_at), "fill retires with the last part");
    assert_eq!(mem.cwf_stats().cw_served_fast, 1);

    assert!(oracle_check(&[(tok, 0)], &ev).is_empty(), "healthy last-beat read is clean");
}

#[test]
fn critical_word_at_last_beat_is_served_slow_under_static0() {
    // Static0 pins word 0 to the fast DIMM, so a word-7 critical read is
    // the worst case: the critical beat arrives with the slow part.
    let mut mem = HeteroCwfMemory::new(CwfConfig::rl().with_policy(PlacementPolicy::Static0));
    let tok = mem.try_submit(&LineRequest::demand_read(0x10_000, 7, 0), 0).unwrap().unwrap();
    let mut ev = Vec::new();
    run(&mut mem, 0, 10_000, &mut ev);

    let (fast, slow, _) = parts(&ev, tok);
    let (_, fast_words) = fast.expect("fast part");
    let (_, slow_words) = slow.expect("slow part");
    assert_eq!(fast_words, 0x01, "Static0 serves exactly word 0 fast");
    assert_ne!(slow_words & 0x80, 0, "the critical beat waits for LPDDR2");
    assert_eq!(mem.cwf_stats().cw_served_fast, 0);
    assert!(oracle_check(&[(tok, 0)], &ev).is_empty());
}

#[test]
fn zero_offset_critical_word_gets_a_positive_head_start() {
    let mut mem = HeteroCwfMemory::new(CwfConfig::rl());
    let tok = mem.try_submit(&LineRequest::demand_read(0, 0, 0), 0).unwrap().unwrap();
    let mut ev = Vec::new();
    run(&mut mem, 0, 10_000, &mut ev);

    let (fast, slow, fill) = parts(&ev, tok);
    let (fast_at, fast_words) = fast.expect("fast part");
    let (slow_at, _) = slow.expect("slow part");
    assert_eq!(fast_words & 0x01, 0x01, "word 0 is the fast word");
    assert!(fast_at < slow_at);
    assert_eq!(fill.expect("fill"), slow_at);
    let s = mem.cwf_stats();
    assert_eq!(s.cw_served_fast, 1);
    assert!(s.avg_head_start() > 0.0, "line-address 0 must not break head-start accounting");
    assert!(oracle_check(&[(tok, 0)], &ev).is_empty());
}

/// Congest the fast channel so one read's slow part lands first, and
/// return that read's `(submits, events, token)`.
///
/// Under `rl()` both mappers pick `line_idx % channels` and the counts
/// match (4/4), so a fast sub-channel and its namesake slow channel
/// always congest together and the fast word — one beat on RLDRAM3 —
/// still wins. Decouple them: a *single* fast sub-channel serializes
/// every fast word, while fillers keep `line_idx % 4 != 0` so slow
/// channel 0 stays idle for the target (`line_idx % 4 == 0`). Its slow
/// part is then serviced immediately; its fast word waits out the queue.
fn inverted_stream() -> (Vec<(Token, u64)>, Vec<MemEvent>, Token) {
    let cfg = CwfConfig { fast_subchannels: 1, ..CwfConfig::rl() };
    let mut mem = HeteroCwfMemory::new(cfg);
    let mut submits = Vec::new();
    for idx in (1..80u64).filter(|i| i % 4 != 0) {
        if let Ok(Some(t)) = mem.try_submit(&LineRequest::demand_read(idx * 64, 0, 0), 0) {
            submits.push((t, 0));
        }
    }
    // The fillers saturate the single fast sub-channel; tick until the
    // target squeezes in behind them.
    let mut ev = Vec::new();
    let mut now = 0;
    let tok = loop {
        match mem.try_submit(&LineRequest::demand_read(0, 0, 0), now) {
            Ok(Some(t)) => break t,
            _ => {
                assert!(now < 100_000, "target never admitted");
                run(&mut mem, now, now + 1, &mut ev);
                now += 1;
            }
        }
    };
    submits.push((tok, now));
    run(&mut mem, now, 400_000, &mut ev);
    (submits, ev, tok)
}

#[test]
fn slow_part_arriving_before_the_fast_word_is_legal() {
    let (submits, ev, tok) = inverted_stream();
    let (fast, slow, fill) = parts(&ev, tok);
    let (fast_at, _) = fast.expect("fast part");
    let (slow_at, _) = slow.expect("slow part");
    assert!(slow_at < fast_at, "scenario must invert ordering (slow {slow_at} vs fast {fast_at})");
    assert_eq!(fill.expect("fill"), fast_at, "the fill waits for the *fast* straggler");
    assert!(
        oracle_check(&submits, &ev).is_empty(),
        "ordering inversion is within the fill contract"
    );
}

#[test]
fn dropped_fast_straggler_is_caught_as_incomplete_fill() {
    // Seeded fault: on the inverted stream, lose the fast WordsAvailable.
    // The fill then retires a token that never got its fast word — the
    // FillOracle's finalize check must flag it.
    let (submits, mut ev, tok) = inverted_stream();
    ev.retain(
        |e| !matches!(*e, MemEvent::WordsAvailable { token, served_fast: true, .. } if token == tok),
    );
    let out = oracle_check(&submits, &ev);
    assert!(
        out.iter().any(|v| v.rule == OracleRule::IncompleteFill
            && v.detail.contains(&format!("token {}", tok.0))),
        "losing the straggler must surface as IncompleteFill: {out:?}"
    );
}

#[test]
fn replayed_slow_part_is_caught_as_duplicate_delivery() {
    // Seeded fault: deliver the early slow part twice (a retry bug an
    // ordering inversion could plausibly tickle).
    let (submits, mut ev, tok) = inverted_stream();
    let dup = ev
        .iter()
        .find(
            |e| matches!(**e, MemEvent::WordsAvailable { token, served_fast: false, .. } if token == tok),
        )
        .copied()
        .expect("slow part present");
    ev.push(dup);
    let out = oracle_check(&submits, &ev);
    assert!(
        out.iter().any(|v| v.rule == OracleRule::DuplicateWordDelivery),
        "replaying the slow part must be flagged: {out:?}"
    );
}

#[test]
fn words_stamped_after_the_fill_are_caught() {
    // Seeded fault: re-stamp the fast straggler *after* the fill it was
    // supposed to gate — the inversion bug the timestamp check exists for.
    let (submits, mut ev, tok) = inverted_stream();
    let fill_at = parts(&ev, tok).2.expect("fill");
    for e in &mut ev {
        if let MemEvent::WordsAvailable { token, served_fast: true, at, .. } = e {
            if *token == tok {
                *at = fill_at + 64;
            }
        }
    }
    let out = oracle_check(&submits, &ev);
    assert!(
        out.iter().any(|v| v.rule == OracleRule::NonMonotonicArrival),
        "a word timestamped after its fill must be flagged: {out:?}"
    );
}
