//! Binary run-trace tooling: capture a run as a streaming trace, export
//! it as a pcap-style capture for external tooling, and validate the
//! framing of either file.
//!
//! Usage:
//!
//! ```text
//! # 1. Run a scenario and stream its packet log to a binary trace.
//! cargo run --release -p vifi-bench --bin trace_export -- \
//!     run --vanlan 8 --secs 15 --seed 42 --out trace.bin
//!
//! # 2. Export the trace as a pcap capture (LINKTYPE_USER0; each pcap
//! #    record wraps one trace record, timestamped with sim time).
//! cargo run --release -p vifi-bench --bin trace_export -- \
//!     export --input trace.bin --out capture.pcap
//!
//! # 3. Validate framing (pcap magic/version/link type + every record
//! #    decoded, or the raw binary trace replayed).
//! cargo run --release -p vifi-bench --bin trace_export -- \
//!     validate --input capture.pcap
//! ```
//!
//! The binary trace format is defined in `vifi_runtime::binlog` (records
//! are `u32 len | u8 kind | u64 at_micros | body`, little-endian), and
//! every record this tool reads goes through its decoder. The pcap
//! wrapper uses the classic libpcap global header (magic `0xa1b2c3d4`,
//! version 2.4) with `LINKTYPE_USER0` (147), so standard capture tools
//! accept the file and dissect nothing.
//!
//! Exit status: 0 on success, 1 on an I/O error or malformed input, 2 on
//! a usage error (unknown subcommand, missing or unparsable flag value).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::ExitCode;

use vifi_runtime::binlog::{read_record, read_record_body};
use vifi_runtime::{read_stream, Fingerprintable, RunConfig, RunLog, Simulation, WorkloadSpec};
use vifi_sim::SimDuration;
use vifi_testbeds::vanlan;

/// Classic pcap magic, host-endian write (we always write little-endian;
/// readers detect byte order from this value).
const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
/// `LINKTYPE_USER0`: reserved for private use — no dissector will
/// misread ViFi trace records as a real link protocol.
const LINKTYPE_USER0: u32 = 147;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    let result = match cmd {
        Some("run") => cmd_run(&args),
        Some("export") => cmd_export(&args),
        Some("validate") => cmd_validate(&args),
        _ => Err(usage_error("unknown subcommand".into())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
            eprintln!("trace_export {}: {e}", cmd.unwrap_or(""));
            eprintln!("usage: trace_export <run|export|validate> [options]");
            eprintln!("  run      --vanlan N --secs S --seed K --out trace.bin");
            eprintln!("  export   --input trace.bin --out capture.pcap");
            eprintln!("  validate --input <trace.bin | capture.pcap>");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("trace_export {}: {e}", cmd.unwrap_or(""));
            ExitCode::FAILURE
        }
    }
}

/// A usage error: `main` prints the usage lines and exits 2.
fn usage_error(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// The value after flag `key`, `None` when the flag is absent; a flag
/// without a value is a usage error.
fn arg<'a>(args: &'a [String], key: &str) -> io::Result<Option<&'a str>> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(usage_error(format!("{key} needs a value"))),
        },
    }
}

/// The parsed value of flag `key`, `default` when the flag is absent; a
/// missing or unparsable value is a usage error.
fn parsed<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> io::Result<T> {
    match arg(args, key)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| usage_error(format!("bad value for {key}: {v:?}"))),
    }
}

/// The value of the required flag `key`.
fn required<'a>(args: &'a [String], key: &str) -> io::Result<&'a str> {
    arg(args, key)?.ok_or_else(|| usage_error(format!("{key} is required")))
}

/// `run`: drive a VanLAN deployment and stream its packet log to a
/// binary trace, verifying the trace reconstructs the log bit-for-bit
/// before reporting success.
fn cmd_run(args: &[String]) -> io::Result<()> {
    let vehicles: u32 = parsed(args, "--vanlan", 8)?;
    let secs: u64 = parsed(args, "--secs", 15)?;
    let seed: u64 = parsed(args, "--seed", 42)?;
    let out = arg(args, "--out")?.unwrap_or("trace.bin");

    let scenario = vanlan(vehicles);
    let cfg = RunConfig {
        fleet_workloads: vec![WorkloadSpec::paper_cbr()],
        duration: SimDuration::from_secs(secs),
        seed,
        ..RunConfig::default()
    };
    let outcome = Simulation::deployment(&scenario, cfg).run();
    let file = File::create(out)?;
    let file = outcome.log.write_binary(BufWriter::new(file))?;
    file.into_inner().map_err(|e| e.into_error())?.sync_all()?;

    // Round-trip sanity: the trace must rebuild the exact log.
    let mut rebuilt = RunLog::new();
    let records = read_stream(BufReader::new(File::open(out)?), &mut rebuilt)?;
    let want = outcome.log.fingerprint();
    let got = rebuilt.fingerprint();
    if got != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace round-trip fingerprint mismatch: {got:#018x} != {want:#018x}"),
        ));
    }
    println!(
        "wrote {out}: {records} records, {} tx log entries, fingerprint {want:#018x}",
        outcome.log.records.len()
    );
    Ok(())
}

/// `export`: wrap every trace record in a pcap packet record, decoding
/// each on the way. The pcap timestamp is the record's simulation time.
fn cmd_export(args: &[String]) -> io::Result<()> {
    let input = required(args, "--input")?;
    let out = arg(args, "--out")?.unwrap_or("capture.pcap");

    let mut w = BufWriter::new(File::create(out)?);
    // Global header: magic, v2.4, UTC, no sigfigs, generous snaplen,
    // LINKTYPE_USER0.
    w.write_all(&PCAP_MAGIC.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?;
    w.write_all(&4u16.to_le_bytes())?;
    w.write_all(&0i32.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&65535u32.to_le_bytes())?;
    w.write_all(&LINKTYPE_USER0.to_le_bytes())?;

    let mut r = BufReader::new(File::open(input)?);
    let mut rec = Vec::new();
    let mut records = 0u64;
    while let Some((at, _)) = read_record(&mut r, &mut rec)? {
        let at = at.as_micros();
        let (sec, usec) = (at / 1_000_000, at % 1_000_000);
        w.write_all(&(sec as u32).to_le_bytes())?;
        w.write_all(&(usec as u32).to_le_bytes())?;
        w.write_all(&(rec.len() as u32).to_le_bytes())?;
        w.write_all(&(rec.len() as u32).to_le_bytes())?;
        w.write_all(&rec)?;
        records += 1;
    }
    w.flush()?;
    println!("wrote {out}: {records} pcap records from {input}");
    Ok(())
}

/// `validate`: check a pcap capture's global header and decode every
/// record it wraps, or replay a raw binary trace. Exits non-zero on the
/// first malformed byte.
fn cmd_validate(args: &[String]) -> io::Result<()> {
    let input = required(args, "--input")?;
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);

    let mut r = BufReader::new(File::open(input)?);
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    if u32::from_le_bytes(head) == PCAP_MAGIC {
        let mut rest = [0u8; 20];
        r.read_exact(&mut rest)?;
        let major = u16::from_le_bytes(rest[0..2].try_into().expect("u16"));
        let minor = u16::from_le_bytes(rest[2..4].try_into().expect("u16"));
        let network = u32::from_le_bytes(rest[16..20].try_into().expect("u32"));
        if (major, minor) != (2, 4) {
            return Err(bad(format!("pcap version {major}.{minor}, want 2.4")));
        }
        if network != LINKTYPE_USER0 {
            return Err(bad(format!("link type {network}, want {LINKTYPE_USER0}")));
        }
        let mut count = 0u64;
        let mut data = Vec::new();
        let mut rec = Vec::new();
        loop {
            rec.clear();
            match r.by_ref().take(16).read_to_end(&mut rec)? {
                0 => break,
                16 => {}
                n => return Err(bad(format!("record {count}: {n}-byte header, want 16"))),
            }
            let incl = u32::from_le_bytes(rec[8..12].try_into().expect("u32"));
            let orig = u32::from_le_bytes(rec[12..16].try_into().expect("u32"));
            if incl != orig {
                return Err(bad(format!(
                    "record {count}: truncated capture ({incl}/{orig})"
                )));
            }
            read_record_body(&mut r, incl, &mut data)
                .map_err(|e| io::Error::new(e.kind(), format!("record {count}: {e}")))?;
            count += 1;
        }
        if count == 0 {
            return Err(bad("pcap capture holds zero records".into()));
        }
        println!("{input}: valid pcap (v2.4, LINKTYPE_USER0), {count} records");
    } else {
        // Not a pcap: validate as a raw binary trace by replaying it
        // into a fresh log (exercises the full decoder).
        drop(r);
        let mut log = RunLog::new();
        let count = read_stream(BufReader::new(File::open(input)?), &mut log)?;
        if count == 0 {
            return Err(bad("binary trace holds zero records".into()));
        }
        println!(
            "{input}: valid binary trace, {count} records, fingerprint {:#018x}",
            log.fingerprint()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_and_reject_bad_values() {
        assert_eq!(parsed(&args("run --secs 8"), "--secs", 15u64).unwrap(), 8);
        assert_eq!(parsed(&args("run"), "--secs", 15u64).unwrap(), 15);
        for bad in ["run --secs abc", "run --secs", "run --secs -3"] {
            let err = parsed(&args(bad), "--secs", 15u64).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad}");
        }
        assert_eq!(
            arg(&args("export --out x.pcap"), "--out").unwrap(),
            Some("x.pcap")
        );
        let err = required(&args("validate"), "--input").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
