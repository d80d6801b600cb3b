//! Renderers for a drained [`Profile`]: Chrome trace-event JSON, folded
//! flamegraph stacks, and a metrics TSV. All output is deterministic for a
//! given event list (stable ordering, fixed number formatting), so golden
//! tests can compare exact strings.

use crate::{Event, EventKind, Profile, Track};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Chrome `pid` for the host process; simulated nodes get `SIM_PID_BASE + n`.
const HOST_PID: u32 = 1;
const SIM_PID_BASE: u32 = 1000;

fn track_pid_tid(track: Track) -> (u32, u32) {
    match track {
        Track::Host { thread } => (HOST_PID, thread),
        Track::SimProgram { node } => (SIM_PID_BASE + node, 0),
        Track::SimService { node } => (SIM_PID_BASE + node, 1),
        Track::SimGpu { node } => (SIM_PID_BASE + node, 2),
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Trace-event `ts`/`dur` are microseconds; keep nanosecond precision as a
/// fixed three-decimal fraction so output is deterministic.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn push_args(out: &mut String, kind: &EventKind) {
    match *kind {
        EventKind::Span { .. } => out.push_str("{}"),
        EventKind::LaunchAnalyzed { engine, task } => {
            out.push_str("{\"engine\":");
            push_json_str(out, engine);
            let _ = write!(out, ",\"task\":{task}}}");
        }
        EventKind::HistoryScan { entries } => {
            let _ = write!(out, "{{\"entries\":{entries}}}");
        }
        EventKind::EqSetCreated { count }
        | EventKind::EqSetRefined { count }
        | EventKind::EqSetCoalesced { count } => {
            let _ = write!(out, "{{\"count\":{count}}}");
        }
        EventKind::CompositeView { entries } => {
            let _ = write!(out, "{{\"entries\":{entries}}}");
        }
        EventKind::BvhTraversal { nodes } | EventKind::DynamicBvhTraversal { nodes } => {
            let _ = write!(out, "{{\"nodes\":{nodes}}}");
        }
        EventKind::MsgSend { from, to, bytes } => {
            let _ = write!(out, "{{\"from\":{from},\"to\":{to},\"bytes\":{bytes}}}");
        }
        EventKind::MsgServe {
            from,
            to,
            queued_ns,
        } => {
            let _ = write!(
                out,
                "{{\"from\":{from},\"to\":{to},\"queued_ns\":{queued_ns}}}"
            );
        }
        EventKind::GpuTask { task } => {
            let _ = write!(out, "{{\"task\":{task}}}");
        }
        EventKind::TraceDetect { trace, len } => {
            let _ = write!(out, "{{\"trace\":{trace},\"len\":{len}}}");
        }
        EventKind::TraceReplay { trace, launches } => {
            let _ = write!(out, "{{\"trace\":{trace},\"launches\":{launches}}}");
        }
        EventKind::PipelineDepth { depth } => {
            let _ = write!(out, "{{\"depth\":{depth}}}");
        }
        EventKind::PipelineStall { waited_ns } => {
            let _ = write!(out, "{{\"waited_ns\":{waited_ns}}}");
        }
        EventKind::SubmitCombine { rings, specs } => {
            let _ = write!(out, "{{\"rings\":{rings},\"specs\":{specs}}}");
        }
        EventKind::AlgebraCache { hits, misses } => {
            let _ = write!(out, "{{\"hits\":{hits},\"misses\":{misses}}}");
        }
        EventKind::BvhMaintain { refits, rebuilds } => {
            let _ = write!(out, "{{\"refits\":{refits},\"rebuilds\":{rebuilds}}}");
        }
        EventKind::FlatSnapshot { nodes } => {
            let _ = write!(out, "{{\"nodes\":{nodes}}}");
        }
        EventKind::BatchQuery { queries, hits } => {
            let _ = write!(out, "{{\"queries\":{queries},\"hits\":{hits}}}");
        }
        EventKind::HistoryRecord { launches } => {
            let _ = write!(out, "{{\"launches\":{launches}}}");
        }
        EventKind::OracleCheck { pairs, edges } => {
            let _ = write!(out, "{{\"pairs\":{pairs},\"edges\":{edges}}}");
        }
        EventKind::GcSweep {
            watermark,
            retired,
            freed_words,
            dropped,
            coarsened,
        } => {
            let _ = write!(
                out,
                "{{\"watermark\":{watermark},\"retired\":{retired},\
                 \"freed_words\":{freed_words},\"dropped\":{dropped},\
                 \"coarsened\":{coarsened}}}"
            );
        }
        EventKind::ScanSweep { candidates, swept } => {
            let _ = write!(out, "{{\"candidates\":{candidates},\"swept\":{swept}}}");
        }
    }
}

fn push_metadata(out: &mut String, name: &str, pid: u32, tid: u32, arg_name: &str, value: &str) {
    let _ = write!(out, "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":");
    push_json_str(out, name);
    out.push_str(",\"args\":{");
    push_json_str(out, arg_name);
    out.push(':');
    push_json_str(out, value);
    out.push_str("}}");
}

/// Render the profile in Chrome's trace-event JSON format (load in
/// `chrome://tracing` or Perfetto). The host process is `pid 1` with one
/// row per OS thread; each simulated node is its own process
/// (`pid 1000+n`) with `program` / `service` / `gpu` rows carrying
/// simulated-time events.
pub fn chrome_trace(profile: &Profile) -> String {
    let mut out = String::with_capacity(128 + profile.events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };

    // Process/thread naming metadata.
    sep(&mut out);
    push_metadata(&mut out, "process_name", HOST_PID, 0, "name", "host");
    for (tid, name) in &profile.threads {
        sep(&mut out);
        push_metadata(&mut out, "thread_name", HOST_PID, *tid, "name", name);
    }
    let mut sim_nodes: Vec<u32> = profile
        .events
        .iter()
        .filter_map(|e| match e.track {
            Track::SimProgram { node } | Track::SimService { node } | Track::SimGpu { node } => {
                Some(node)
            }
            Track::Host { .. } => None,
        })
        .collect();
    sim_nodes.sort_unstable();
    sim_nodes.dedup();
    for node in &sim_nodes {
        let pid = SIM_PID_BASE + node;
        sep(&mut out);
        push_metadata(
            &mut out,
            "process_name",
            pid,
            0,
            "name",
            &format!("sim node {node}"),
        );
        for (tid, label) in [(0, "program"), (1, "service"), (2, "gpu")] {
            sep(&mut out);
            push_metadata(&mut out, "thread_name", pid, tid, "name", label);
        }
    }

    for event in &profile.events {
        let (pid, tid) = track_pid_tid(event.track);
        sep(&mut out);
        out.push_str("{\"name\":");
        push_json_str(&mut out, event.kind.name());
        let ph = if event.dur > 0 { "X" } else { "i" };
        let _ = write!(out, ",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":");
        push_us(&mut out, event.ts);
        if event.dur > 0 {
            out.push_str(",\"dur\":");
            push_us(&mut out, event.dur);
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":");
        push_args(&mut out, &event.kind);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Render host-track spans as folded stacks (`inferno` / `flamegraph.pl`
/// input): one line per unique stack, `root;child;leaf self_time_ns`.
/// Nesting is reconstructed from interval containment per thread; the
/// reported value is *self* time (span minus its children).
pub fn folded_stacks(profile: &Profile) -> String {
    let mut lines: BTreeMap<String, u64> = BTreeMap::new();
    let mut threads: Vec<u32> = profile
        .events
        .iter()
        .filter_map(|e| match e.track {
            Track::Host { thread } => Some(thread),
            _ => None,
        })
        .collect();
    threads.sort_unstable();
    threads.dedup();

    for thread in threads {
        let root = profile
            .threads
            .iter()
            .find(|(tid, _)| *tid == thread)
            .map(|(_, name)| name.clone())
            .unwrap_or_else(|| format!("thread-{thread}"));
        let mut spans: Vec<&Event> = profile
            .on_track(Track::Host { thread })
            .filter(|e| matches!(e.kind, EventKind::Span { .. }))
            .collect();
        // Parents before children: earlier start first, longer span first
        // on ties.
        spans.sort_by(|a, b| a.ts.cmp(&b.ts).then(b.dur.cmp(&a.dur)));

        // Open frames: (name, end, self_time_remaining). A child's duration
        // is subtracted from its parent's self time when the child opens.
        let mut stack2: Vec<(&'static str, u64, u64)> = Vec::new();
        let emit = |stack2: &mut Vec<(&'static str, u64, u64)>,
                    lines: &mut BTreeMap<String, u64>,
                    up_to: u64| {
            while let Some(&(name, end, self_ns)) = stack2.last() {
                if up_to < end {
                    break;
                }
                stack2.pop();
                let mut key = root.clone();
                for (frame, _, _) in stack2.iter() {
                    key.push(';');
                    key.push_str(frame);
                }
                key.push(';');
                key.push_str(name);
                *lines.entry(key).or_insert(0) += self_ns;
            }
        };
        for span in spans {
            let (name, end) = match span.kind {
                EventKind::Span { name } => (name, span.ts + span.dur),
                _ => unreachable!("filtered to spans"),
            };
            emit(&mut stack2, &mut lines, span.ts);
            // This span's duration is no longer its parent's self time.
            if let Some(parent) = stack2.last_mut() {
                parent.2 = parent.2.saturating_sub(span.dur);
            }
            stack2.push((name, end, span.dur));
        }
        emit(&mut stack2, &mut lines, u64::MAX);
    }

    let mut out = String::new();
    for (stack, self_ns) in lines {
        let _ = writeln!(out, "{stack} {self_ns}");
    }
    out
}

/// Aggregate the profile into a TSV: one row per metric (event kind, with
/// per-engine rows for launches), with event count, summed duration and
/// summed payload units. Rows are sorted by metric name.
pub fn metrics_tsv(profile: &Profile) -> String {
    #[derive(Default)]
    struct Agg {
        count: u64,
        dur_ns: u64,
        units: u64,
    }
    let mut rows: BTreeMap<String, Agg> = BTreeMap::new();
    for event in &profile.events {
        let key = match event.kind {
            EventKind::LaunchAnalyzed { engine, .. } => format!("launch_analyzed/{engine}"),
            EventKind::Span { name } => format!("span/{name}"),
            ref k => k.name().to_string(),
        };
        let agg = rows.entry(key).or_default();
        agg.count += 1;
        agg.dur_ns += event.dur;
        agg.units += event.kind.units();
    }
    let mut out = String::from("metric\tcount\ttotal_dur_ns\ttotal_units\n");
    for (metric, agg) in rows {
        let _ = writeln!(
            out,
            "{metric}\t{}\t{}\t{}",
            agg.count, agg.dur_ns, agg.units
        );
    }
    if profile.dropped > 0 {
        let _ = writeln!(out, "dropped_events\t{}\t0\t0", profile.dropped);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Profile {
        Profile {
            events: vec![
                Event {
                    ts: 1_000,
                    dur: 10_000,
                    track: Track::Host { thread: 0 },
                    kind: EventKind::Span {
                        name: "analyze:Paint",
                    },
                },
                Event {
                    ts: 2_000,
                    dur: 3_000,
                    track: Track::Host { thread: 0 },
                    kind: EventKind::Span { name: "flush" },
                },
                Event {
                    ts: 2_500,
                    dur: 0,
                    track: Track::Host { thread: 0 },
                    kind: EventKind::EqSetCreated { count: 2 },
                },
                Event {
                    ts: 500,
                    dur: 0,
                    track: Track::SimProgram { node: 1 },
                    kind: EventKind::MsgSend {
                        from: 1,
                        to: 0,
                        bytes: 64,
                    },
                },
                Event {
                    ts: 900,
                    dur: 150,
                    track: Track::SimService { node: 0 },
                    kind: EventKind::MsgServe {
                        from: 1,
                        to: 0,
                        queued_ns: 40,
                    },
                },
            ],
            dropped: 0,
            threads: vec![(0, "main".to_string())],
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace(&fixture());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}\n"));
        // Host span with microsecond conversion (1000 ns = 1.000 us).
        assert!(json.contains(
            "{\"name\":\"analyze:Paint\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.000,\"dur\":10.000,\"args\":{}}"
        ));
        // Sim node processes are named and events land on them.
        assert!(json.contains("\"name\":\"process_name\",\"args\":{\"name\":\"sim node 0\"}")
            || json.contains("{\"ph\":\"M\",\"pid\":1000,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"sim node 0\"}}"));
        assert!(json.contains("\"pid\":1001"));
        assert!(json.contains("\"queued_ns\":40"));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        assert_eq!(chrome_trace(&fixture()), chrome_trace(&fixture()));
    }

    #[test]
    fn folded_stacks_nest_and_report_self_time() {
        let folded = folded_stacks(&fixture());
        let mut lines: Vec<&str> = folded.lines().collect();
        lines.sort();
        assert_eq!(
            lines,
            vec![
                // outer span: 10_000 minus the nested 3_000
                "main;analyze:Paint 7000",
                "main;analyze:Paint;flush 3000",
            ]
        );
    }

    #[test]
    fn metrics_aggregate_by_kind() {
        let tsv = metrics_tsv(&fixture());
        assert!(tsv.starts_with("metric\tcount\ttotal_dur_ns\ttotal_units\n"));
        assert!(tsv.contains("eqset_created\t1\t0\t2\n"));
        assert!(tsv.contains("msg_send\t1\t0\t64\n"));
        assert!(tsv.contains("msg_serve\t1\t150\t40\n"));
        assert!(tsv.contains("span/analyze:Paint\t1\t10000\t0\n"));
    }
}
