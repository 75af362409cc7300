//! The content-addressed result store: an in-memory LRU tier over an
//! optional on-disk tier.
//!
//! Both tiers map a [`PointKey`] to a result held once, as its canonical
//! JSON text — the bytes a [`SimResult`] renders to — in one exactly
//! sized shared allocation (`Arc<str>`). The tiers share that
//! allocation: promoting a disk entry into the memory tier, or storing a
//! result in both, copies a pointer, not the result. The daemon splices
//! the bytes into its `point` frames as they are, so a hit is never
//! decoded or rendered again; the typed [`ResultCache::get`] decodes
//! them for library callers.
//!
//! The memory tier is bounded (LRU eviction); the disk tier is an
//! append-only JSON-lines file headed by an engine-version stamp —
//! opening a file written by a different [`ENGINE_VERSION`] discards it
//! wholesale, so stale results can never be served after the simulators
//! change observable behaviour. Each row is `{"key":…,"result":…}`: the
//! key's canonical string form and the stored bytes.
//!
//! Append-only files accumulate dead lines: a key appended twice (say by
//! a writer that crashed before it could index its own append, or by two
//! processes sharing the directory) leaves its older line superseded, and
//! a torn trailing write leaves an unparsable row. A row whose key is not
//! in canonical form for this engine (see [`PointKey`]'s string form) or
//! whose result does not decode is dead too; a row that decodes is kept
//! as the canonical re-rendering of its result, never as the text read.
//! Later appearances of a key win at load, matching append order. When
//! the dead lines loaded past exceed a quarter of the live entries,
//! opening the cache compacts: the file is rewritten — header plus one
//! line per live key — through an atomic rename, so a crash
//! mid-compaction leaves the old file intact.

use crate::key::PointKey;
use dva_engine::ENGINE_VERSION;
use dva_json::{FromJson, Reader, ToJson, Writer};
use dva_sim_api::SimResult;
use dva_testutil::failpoint;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How big the in-memory tier may grow before least-recently-used
/// results are dropped (they survive on disk when a disk tier exists).
pub const DEFAULT_MEMORY_CAPACITY: usize = 4096;

/// A two-tier result store. See the module docs.
pub struct ResultCache {
    /// Memory tier: key → (result bytes, last-use stamp).
    memory: HashMap<PointKey, (Arc<str>, u64)>,
    /// Monotonic use counter backing the LRU order.
    clock: u64,
    capacity: usize,
    /// Results the memory tier has evicted so far.
    evictions: usize,
    disk: Option<DiskTier>,
}

struct DiskTier {
    /// Everything the file holds, loaded at open. Unbounded: the disk is
    /// the persistent tier, so it never evicts.
    entries: HashMap<PointKey, Arc<str>>,
    /// `None` once a write has failed: the tier is demoted to read-only
    /// and the cache keeps serving from memory plus what was loaded.
    writer: Option<BufWriter<File>>,
    path: PathBuf,
    /// Write failures absorbed so far (the first one demotes the tier).
    errors: usize,
}

/// A result's canonical JSON text, the form both tiers store.
pub(crate) fn render(result: &SimResult) -> Arc<str> {
    Arc::from(result.render_json())
}

/// Reads stored bytes back as a result.
pub(crate) fn decode(stored: &str) -> SimResult {
    SimResult::parse_json(stored).expect("stored bytes are a rendered result")
}

impl ResultCache {
    /// A memory-only cache holding at most `capacity` results.
    pub fn in_memory(capacity: usize) -> ResultCache {
        ResultCache {
            memory: HashMap::new(),
            clock: 0,
            capacity: capacity.max(1),
            evictions: 0,
            disk: None,
        }
    }

    /// A cache backed by `dir/results.jsonl`, created (with the version
    /// header) if absent, loaded if present, and discarded — truncated —
    /// if it was written by a different engine version or is corrupt.
    pub fn persistent(dir: &Path, capacity: usize) -> io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("results.jsonl");
        // An unreadable file counts as stale.
        let loaded = load_entries(&path).unwrap_or_default();
        let (entries, fresh) = match loaded {
            Some((entries, dead)) => {
                if needs_compaction(entries.len(), dead) {
                    compact(&path, &entries)?;
                }
                (entries, false)
            }
            None => (HashMap::new(), true),
        };
        let mut options = OpenOptions::new();
        options.create(true);
        if fresh {
            options.write(true).truncate(true);
        } else {
            options.append(true);
        }
        let mut writer = BufWriter::new(options.open(&path)?);
        if fresh {
            writeln!(writer, "{}", header_line())?;
            writer.flush()?;
        }
        Ok(ResultCache {
            disk: Some(DiskTier {
                entries,
                writer: Some(writer),
                path,
                errors: 0,
            }),
            ..ResultCache::in_memory(capacity)
        })
    }

    /// The file backing the disk tier, if there is one.
    pub fn disk_path(&self) -> Option<&Path> {
        self.disk.as_ref().map(|d| d.path.as_path())
    }

    /// Results currently resident in the memory tier.
    pub fn memory_len(&self) -> usize {
        self.memory.len()
    }

    /// Results persisted in the disk tier.
    pub fn disk_len(&self) -> usize {
        self.disk.as_ref().map_or(0, |d| d.entries.len())
    }

    /// Results the memory tier has evicted to stay within its capacity
    /// (each stays servable from the disk tier, when there is one).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Disk-tier write failures absorbed so far. The first failure
    /// demotes the tier to read-only (see [`ResultCache::store`]); the
    /// count keeps growing if callers keep storing.
    pub fn disk_errors(&self) -> usize {
        self.disk.as_ref().map_or(0, |d| d.errors)
    }

    /// Whether the disk tier has been demoted to read-only after a
    /// write failure. Memory-only caches report `false`.
    pub fn disk_demoted(&self) -> bool {
        self.disk
            .as_ref()
            .is_some_and(|d| d.writer.is_none() && d.errors > 0)
    }

    /// Looks a result up, refreshing its LRU position (a disk hit is
    /// promoted into the memory tier), and decodes its stored bytes.
    pub fn get(&mut self, key: &PointKey) -> Option<SimResult> {
        self.get_bytes(key).map(|stored| decode(&stored))
    }

    /// [`get`](ResultCache::get) without the decode: the stored bytes.
    pub(crate) fn get_bytes(&mut self, key: &PointKey) -> Option<Arc<str>> {
        self.clock += 1;
        if let Some((stored, stamp)) = self.memory.get_mut(key) {
            *stamp = self.clock;
            return Some(Arc::clone(stored));
        }
        let promoted = Arc::clone(self.disk.as_ref()?.entries.get(key)?);
        self.insert_memory(key.clone(), Arc::clone(&promoted));
        Some(promoted)
    }

    /// Stores a result in both tiers. A disk write failure never fails
    /// the store: the memory tier is already updated, the failure is
    /// counted and logged once, and the disk tier demotes itself to
    /// read-only — previously loaded entries stay servable, new results
    /// live in memory only, and the server keeps serving.
    pub fn store(&mut self, key: PointKey, result: SimResult) {
        self.store_bytes(key, render(&result));
    }

    /// [`store`](ResultCache::store) of a result already rendered by
    /// [`render`]: the same allocation goes into both tiers, and its
    /// bytes are the disk line's `result`.
    pub(crate) fn store_bytes(&mut self, key: PointKey, stored: Arc<str>) {
        self.clock += 1;
        self.insert_memory(key.clone(), Arc::clone(&stored));
        let Some(disk) = self.disk.as_mut() else {
            return;
        };
        if disk.entries.contains_key(&key) {
            return;
        }
        let Some(writer) = disk.writer.as_mut() else {
            return; // demoted: memory-only from here on
        };
        let text = key.to_string();
        let appended = failpoint::hit("serve.cache.write", || text.clone()).and_then(|()| {
            writeln!(writer, "{}", entry_line(&text, &stored))?;
            writer.flush()
        });
        match appended {
            Ok(()) => {
                disk.entries.insert(key, stored);
            }
            Err(e) => {
                disk.errors += 1;
                disk.writer = None;
                eprintln!(
                    "dva-serve: disk cache write to {} failed ({e}); \
                     demoting cache to memory-only",
                    disk.path.display()
                );
            }
        }
    }

    fn insert_memory(&mut self, key: PointKey, stored: Arc<str>) {
        self.memory.insert(key, (stored, self.clock));
        while self.memory.len() > self.capacity {
            // O(n) eviction scan: capacities are small (thousands) and
            // eviction is off the simulation fast path.
            let oldest = self
                .memory
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(key, _)| key.clone())
                .expect("non-empty map over capacity");
            self.memory.remove(&oldest);
            self.evictions += 1;
        }
    }
}

/// The disk tier's first line: `{"engine_version":N}`.
fn header_line() -> String {
    let mut line = String::new();
    Writer::new(&mut line).object(|w| w.field("engine_version", &ENGINE_VERSION));
    line
}

/// One disk-tier entry, `{"key":…,"result":…}`, from a key's string form
/// and its stored bytes.
fn entry_line(key: &str, stored: &str) -> String {
    let mut line = String::new();
    Writer::new(&mut line).object(|w| {
        w.field("key", key);
        w.key("result");
        w.raw(stored);
    });
    line
}

/// Whether `dead` superseded-or-unparsable lines justify rewriting a file
/// holding `live` usable entries. A quarter of the live count keeps the
/// rewrite cost proportional to the useful content it preserves.
fn needs_compaction(live: usize, dead: usize) -> bool {
    dead * 4 > live.max(1)
}

/// Rewrites the disk tier as header + one line per live entry, in key
/// string order, swapped into place with an atomic rename.
fn compact(path: &Path, entries: &HashMap<PointKey, Arc<str>>) -> io::Result<()> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        writeln!(writer, "{}", header_line())?;
        let mut rows: Vec<(String, &str)> = entries
            .iter()
            .map(|(key, stored)| (key.to_string(), &**stored))
            .collect();
        rows.sort_unstable();
        for (key, stored) in rows {
            writeln!(writer, "{}", entry_line(&key, stored))?;
        }
        writer.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads the disk tier. `Ok(None)` means "stale or absent — start over";
/// `Err` is a real I/O failure on an existing file. The second element of
/// a loaded pair counts the dead lines skipped over: rows a later append
/// superseded, plus rows that failed to parse, whose key is not in
/// canonical form, or whose result does not decode.
#[allow(clippy::type_complexity)]
fn load_entries(path: &Path) -> io::Result<Option<(HashMap<PointKey, Arc<str>>, usize)>> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = BufReader::new(file).lines();
    let Some(header) = lines.next() else {
        return Ok(None); // empty file: treat as absent
    };
    let header = header?;
    let version = Reader::decode(&header, |r| {
        r.object(|o| o.lenient::<u64>("engine_version"))
    });
    if version.ok().flatten() != Some(u64::from(ENGINE_VERSION)) {
        return Ok(None); // stale
    }
    let mut entries = HashMap::new();
    let mut dead = 0usize;
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue; // tolerate a torn trailing write
        }
        let row = Reader::decode(&line, |r| {
            r.object(|o| Ok((o.field::<String>("key")?, o.field::<SimResult>("result")?)))
        });
        let entry = row
            .ok()
            .and_then(|(key, result)| Some((PointKey::parse(&key)?, render(&result))));
        match entry {
            Some((key, stored)) => {
                if entries.insert(key, stored).is_some() {
                    dead += 1; // superseded an earlier append of this key
                }
            }
            None => dead += 1,
        }
    }
    Ok(Some((entries, dead)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::PointKey;
    use dva_sim_api::{Machine, Sweep};
    use dva_workloads::{Benchmark, Scale};

    fn keyed_points(n: usize) -> Vec<(PointKey, SimResult)> {
        let sweep = Sweep::new()
            .machines([Machine::reference(1), Machine::dva(1)])
            .benchmark(Benchmark::Trfd)
            .latencies((1..=n as u64 / 2 + 1).collect::<Vec<_>>())
            .scale(Scale::Quick)
            .threads(1);
        let grid = sweep.grid();
        let results = sweep.run();
        grid.iter()
            .zip(results.points)
            .take(n)
            .map(|(spec, point)| (PointKey::of(spec, true).unwrap(), point.result))
            .collect()
    }

    #[test]
    fn lru_evicts_the_least_recently_used_result() {
        let points = keyed_points(3);
        let mut cache = ResultCache::in_memory(2);
        cache.store(points[0].0.clone(), points[0].1.clone());
        cache.store(points[1].0.clone(), points[1].1.clone());
        // Touch the older entry so the *other* one becomes LRU.
        assert!(cache.get(&points[0].0).is_some());
        assert_eq!(cache.evictions(), 0);
        cache.store(points[2].0.clone(), points[2].1.clone());
        assert_eq!(cache.memory_len(), 2);
        assert_eq!(cache.evictions(), 1, "one result made room for the third");
        assert!(cache.get(&points[0].0).is_some(), "recently used: kept");
        assert!(
            cache.get(&points[1].0).is_none(),
            "least recently used: evicted"
        );
        assert!(cache.get(&points[2].0).is_some(), "newest: kept");
        assert_eq!(cache.evictions(), 1, "hits and misses evict nothing");
    }

    #[test]
    fn disk_tier_survives_reopen_with_byte_identical_results() {
        let dir = std::env::temp_dir().join(format!("dva-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let points = keyed_points(4);
        {
            let mut cache = ResultCache::persistent(&dir, 64).unwrap();
            for (key, result) in &points {
                cache.store(key.clone(), result.clone());
            }
            assert_eq!(cache.disk_len(), points.len());
        }
        // A fresh cache over the same directory serves every result,
        // byte-identically, without re-simulating anything.
        let mut cache = ResultCache::persistent(&dir, 64).unwrap();
        assert_eq!(cache.memory_len(), 0, "memory tier starts cold");
        assert_eq!(cache.disk_len(), points.len());
        for (key, result) in &points {
            let cached = cache.get(key).expect("persisted");
            assert_eq!(&cached, result);
            assert_eq!(
                format!("{cached:?}"),
                format!("{result:?}"),
                "restart must preserve results byte for byte"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_rewrites_duplicate_keys_then_survives_restart() {
        let dir = std::env::temp_dir().join(format!("dva-serve-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let points = keyed_points(4);
        {
            let mut cache = ResultCache::persistent(&dir, 64).unwrap();
            for (key, result) in &points {
                cache.store(key.clone(), result.clone());
            }
        }
        // Simulate a writer that lost its in-memory index (a crash, or a
        // second process sharing the directory): re-append the first key
        // twice, the last time under a different result.
        let path = dir.join("results.jsonl");
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            for result in [&points[0].1, &points[1].1] {
                let line = entry_line(&points[0].0.to_string(), &render(result));
                writeln!(file, "{line}").unwrap();
            }
        }
        let lines = |p: &Path| std::fs::read_to_string(p).unwrap().lines().count();
        assert_eq!(lines(&path), 1 + points.len() + 2, "bloated before reopen");

        // Reopening sees two dead lines against four live entries — past
        // the quarter threshold — and rewrites the file.
        {
            let mut cache = ResultCache::persistent(&dir, 64).unwrap();
            assert_eq!(cache.disk_len(), points.len());
            assert_eq!(lines(&path), 1 + points.len(), "rewritten on load");
            let served = cache.get(&points[0].0).expect("still present");
            assert_eq!(served, points[1].1, "the latest append of a key wins");
        }
        // A second restart serves the compacted file byte-identically and
        // leaves it alone: no dead lines remain to reclaim.
        let mut cache = ResultCache::persistent(&dir, 64).unwrap();
        assert_eq!(lines(&path), 1 + points.len(), "already compact: untouched");
        let reread = std::fs::read_to_string(&path).unwrap();
        assert!(reread.starts_with(&format!("{{\"engine_version\":{ENGINE_VERSION}}}")));
        for (key, result) in points.iter().skip(1) {
            assert_eq!(&cache.get(key).expect("persisted"), result);
        }
        assert_eq!(cache.get(&points[0].0).unwrap(), points[1].1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_disk_write_demotes_the_cache_to_memory_only() {
        use dva_testutil::failpoint::{self, FailAction, Failpoint};
        let dir = std::env::temp_dir().join(format!("dva-serve-demote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Latencies no other test in this binary uses, so the filter
        // below can never select a concurrent test's store.
        let sweep = Sweep::new()
            .machines([Machine::reference(97), Machine::dva(97)])
            .benchmark(Benchmark::Trfd)
            .latencies([97])
            .scale(Scale::Quick)
            .threads(1);
        let grid = sweep.grid();
        let results = sweep.run();
        let points: Vec<(PointKey, SimResult)> = grid
            .iter()
            .zip(results.points)
            .map(|(spec, point)| (PointKey::of(spec, true).unwrap(), point.result))
            .collect();

        let mut cache = ResultCache::persistent(&dir, 64).unwrap();
        cache.store(points[0].0.clone(), points[0].1.clone());
        failpoint::arm(
            "serve.cache.write",
            Failpoint::new(FailAction::IoError).filter(points[1].0.to_string()),
        );
        cache.store(points[1].0.clone(), points[1].1.clone());
        failpoint::disarm("serve.cache.write");

        // The failed write demoted the tier: the store itself succeeded
        // (memory has the result), earlier disk entries stay servable,
        // and the failure is counted.
        assert_eq!(cache.disk_errors(), 1);
        assert!(cache.disk_demoted());
        assert_eq!(cache.disk_len(), 1, "failed write not indexed as disk");
        assert!(cache.get(&points[1].0).is_some(), "served from memory");
        assert!(cache.get(&points[0].0).is_some(), "disk entry still live");
        // Later stores silently stay memory-only — no error spiral.
        cache.store(points[1].0.clone(), points[1].1.clone());
        assert_eq!(cache.disk_errors(), 1);
        drop(cache);

        // On disk only the pre-demotion entry survives the restart.
        let mut reopened = ResultCache::persistent(&dir, 64).unwrap();
        assert!(!reopened.disk_demoted(), "a reopen re-promotes the tier");
        assert_eq!(reopened.disk_len(), 1);
        assert!(reopened.get(&points[0].0).is_some());
        assert!(reopened.get(&points[1].0).is_none(), "was never persisted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rows the loader must not serve as written: each is dead, counted
    /// toward compaction, and never becomes an entry. A result written
    /// with extra whitespace is served as its canonical bytes.
    #[test]
    fn rows_out_of_canonical_form_are_dead_and_never_served() {
        let dir = std::env::temp_dir().join(format!("dva-serve-dead-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let points = keyed_points(2);
        let (key, result) = (points[0].0.to_string(), render(&points[0].1));
        let other = points[1].0.to_string();
        let out_of_bounds = other.replace(
            "\"model\":{\"kind\":\"flat\"}",
            "\"model\":{\"kind\":\"multiport\",\"ports\":4294967295}",
        );
        assert_ne!(out_of_bounds, other, "the bound must land in the key");
        let rows = [
            // Another engine version's key.
            entry_line(
                &key.replacen(&format!("v{ENGINE_VERSION};"), "v5;", 1),
                &result,
            ),
            // Trailing bytes after the machine.
            entry_line(&format!("{other} "), &result),
            // A machine outside the decode bounds.
            entry_line(&out_of_bounds, &result),
            // A machine with whitespace in it.
            entry_line(&other.replacen("machine={", "machine={ ", 1), &result),
            // A result that does not decode.
            entry_line(&other, r#"{"core":{"cycles":1}}"#),
        ];
        let spaced = result.replace(',', ", ").replace(':', ": ");
        assert_ne!(spaced, *result);
        let path = dir.join("results.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let mut text = format!("{}\n", header_line());
        for row in &rows {
            text += row;
            text.push('\n');
        }
        text += &entry_line(&key, &spaced);
        text.push('\n');
        std::fs::write(&path, &text).unwrap();

        let (entries, dead) = load_entries(&path).unwrap().expect("current version");
        assert_eq!(dead, rows.len(), "every malformed row is dead");
        assert!(needs_compaction(entries.len(), dead));
        assert_eq!(entries.len(), 1, "only the spaced row lives");
        assert_eq!(entries[&points[0].0], result, "served as canonical bytes");

        let mut cache = ResultCache::persistent(&dir, 64).unwrap();
        assert_eq!(cache.disk_len(), 1);
        assert_eq!(cache.get(&points[0].0).as_ref(), Some(&points[0].1));
        assert!(cache.get(&points[1].0).is_none(), "no dead row is served");
        let compacted = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            compacted,
            format!("{}\n{}\n", header_line(), entry_line(&key, &result)),
            "compaction kept the canonical bytes alone"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_discards_the_disk_tier() {
        let dir = std::env::temp_dir().join(format!("dva-serve-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let points = keyed_points(1);
        {
            let mut cache = ResultCache::persistent(&dir, 64).unwrap();
            cache.store(points[0].0.clone(), points[0].1.clone());
        }
        // Rewrite the header as if an older engine had produced the file.
        let path = dir.join("results.jsonl");
        let body = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = body.lines().collect();
        let stale_header = format!("{{\"engine_version\":{}}}", ENGINE_VERSION - 1);
        lines[0] = &stale_header;
        std::fs::write(&path, lines.join("\n")).unwrap();

        let mut cache = ResultCache::persistent(&dir, 64).unwrap();
        assert_eq!(cache.disk_len(), 0, "stale file discarded");
        assert!(cache.get(&points[0].0).is_none());
        // And the file was restarted with the current version.
        let reread = std::fs::read_to_string(&path).unwrap();
        assert!(reread.starts_with(&format!("{{\"engine_version\":{ENGINE_VERSION}}}")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
