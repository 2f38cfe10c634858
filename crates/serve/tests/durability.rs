//! Restart-durability tests: a server killed and rebooted from its
//! `--data-dir` must track a never-restarted twin bit-for-bit from the
//! autosave point, and a corrupt or forged data-dir must degrade into
//! quarantined files, never a failed boot.

use std::fs;
use std::path::{Path, PathBuf};

use wsd_core::{Algorithm, SamplerState, SessionBuilder, SessionSnapshot, StreamSession};
use wsd_graph::{Edge, EdgeEvent, Pattern};
use wsd_serve::store::SessionStore;
use wsd_serve::{serve, Client, RunningServer, ServerConfig};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wsd-serve-durability-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn boot_durable(dir: &Path, autosave_every: u64) -> (RunningServer, Client) {
    let config = ServerConfig {
        shards: 2,
        base_seed: 7,
        data_dir: Some(dir.to_path_buf()),
        autosave_every,
        ..ServerConfig::default()
    };
    let server = serve("127.0.0.1:0", config).expect("binds");
    let client = Client::connect(server.local_addr()).expect("connects");
    (server, client)
}

/// A long all-insert chain: every event is a fresh edge, so any prefix
/// is a valid stream for every algorithm.
fn chain_stream(n: u64) -> Vec<EdgeEvent> {
    (0..n).map(|i| EdgeEvent::insert(Edge::new(i, i + 1))).collect()
}

/// Copies every regular file of `src` into a fresh `dst` — the moral
/// equivalent of the filesystem image a SIGKILL leaves behind (autosave
/// writes are atomic, so the image is exactly "state as of the last
/// completed autosave").
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("dst dir");
    for entry in fs::read_dir(src).expect("readdir") {
        let entry = entry.expect("entry");
        if entry.file_type().expect("type").is_file() {
            fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
        }
    }
}

#[test]
fn rebooted_server_tracks_never_restarted_twin_bit_for_bit() {
    const AUTOSAVE: u64 = 500;
    let dir_live = scratch_dir("lockstep-live");
    let dir_image = scratch_dir("lockstep-image");

    let (server, mut client) = boot_durable(&dir_live, AUTOSAVE);
    let stream = chain_stream(1_100);
    // Head frames sized exactly to the autosave cadence, so the last
    // completed autosave covers precisely the head: the copied dir is a
    // deterministic crash image at event 1000.
    let (head, tail) = stream.split_at(1_000);

    let specs = [
        (Algorithm::WsdH, 64u64, 101u64),
        (Algorithm::Triest, 48, 102),
        (Algorithm::ThinkD, 48, 103),
        (Algorithm::Wrs, 64, 104),
    ];
    let mut ids = Vec::new();
    for &(algorithm, capacity, seed) in &specs {
        let id = client
            .open(algorithm, capacity, Some(seed), &[Pattern::Wedge, Pattern::Triangle])
            .expect("opens");
        for frame in head.chunks(AUTOSAVE as usize) {
            client.send_events(id, frame).expect("sends");
        }
        assert_eq!(client.flush(id).expect("flushes"), head.len() as u64);
        ids.push(id);
    }

    // "SIGKILL": image the data-dir while the first server keeps going.
    copy_dir(&dir_live, &dir_image);

    // Reboot from the image; every session must come back under its
    // original id, at the autosave point.
    let (rebooted, mut client2) = boot_durable(&dir_image, AUTOSAVE);
    assert_eq!(rebooted.restored_sessions(), specs.len() as u64);
    assert_eq!(rebooted.quarantined_files(), 0);
    let report = client2.stats().expect("stats");
    assert_eq!(report.sessions_restored, specs.len() as u64);
    assert_eq!(report.sessions, specs.len() as u64);

    // Feed the tail to the live original, the rebooted twin, and an
    // in-process reference; all three must agree to the last bit.
    for (&id, &(algorithm, capacity, seed)) in ids.iter().zip(&specs) {
        client.send_events(id, tail).expect("sends");
        assert_eq!(client.flush(id).expect("flushes"), stream.len() as u64);
        client2.send_events(id, tail).expect("sends");
        assert_eq!(
            client2.flush(id).expect("rebooted session accepts events under its original id"),
            stream.len() as u64
        );

        let mut local = SessionBuilder::new(algorithm, capacity as usize, seed)
            .query(Pattern::Wedge)
            .query(Pattern::Triangle)
            .build();
        local.process_batch(&stream);
        let local_report = local.report();

        let live = client.estimates(id).expect("estimates");
        let revived = client2.estimates(id).expect("estimates");
        for ((a, b), l) in live.queries.iter().zip(&revived.queries).zip(&local_report.queries) {
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "{algorithm:?}: rebooted twin diverged from the live server"
            );
            assert_eq!(
                b.estimate.to_bits(),
                l.estimate.to_bits(),
                "{algorithm:?}: rebooted twin diverged from the in-process reference"
            );
        }
        // Canonical snapshots must agree too — stronger than estimates.
        assert_eq!(
            client.snapshot(id).expect("snapshots"),
            client2.snapshot(id).expect("snapshots"),
            "{algorithm:?}: snapshot blobs diverged"
        );
    }

    // Fresh ids minted after the reboot never collide with revived ones.
    let fresh = client2.open(Algorithm::Triest, 16, None, &[Pattern::Wedge]).expect("opens");
    assert!(!ids.contains(&fresh));

    server.shutdown();
    rebooted.shutdown();
    let _ = fs::remove_dir_all(&dir_live);
    let _ = fs::remove_dir_all(&dir_image);
}

#[test]
fn corrupt_and_forged_data_dir_boots_with_quarantine() {
    let dir = scratch_dir("forged");

    // Seed one healthy session via a clean shutdown (which persists).
    let (server, mut client) = boot_durable(&dir, 0);
    let healthy = client.open(Algorithm::Wrs, 32, Some(5), &[Pattern::Triangle]).expect("opens");
    let head = chain_stream(200);
    client.send_events(healthy, &head).expect("sends");
    client.flush(healthy).expect("flushes");
    let healthy_blob = client.snapshot(healthy).expect("snapshots");
    server.shutdown();

    // Corruption: raw garbage under a session file name (bad checksum).
    fs::write(dir.join(format!("sess-{:016x}.snap", 7u64)), b"not a session at all")
        .expect("writes garbage");
    // Forgery: a well-formed file (valid checksum, valid blob encoding)
    // whose declared capacity would eagerly allocate u64::MAX — it must
    // be stopped by the same admission gate as a wire request, *before*
    // any allocation happens.
    let mut forged = SessionSnapshot::decode(&healthy_blob).expect("decodes");
    forged.config.capacity = u64::MAX;
    let store = SessionStore::open(&dir).expect("opens store");
    store.save(9, 200, &forged.encode()).expect("saves forged blob");
    // And a stale tmp file from a mid-write crash: swept, not served.
    fs::write(dir.join("sess-00ff.snap.tmp"), b"half a write").expect("writes tmp");
    drop(store);

    let (rebooted, mut client2) = boot_durable(&dir, 0);
    assert_eq!(rebooted.restored_sessions(), 1, "only the healthy session revives");
    assert_eq!(rebooted.quarantined_files(), 2, "garbage and forged files quarantined");

    // The healthy session still answers under its original id, and its
    // state is exactly what was persisted.
    let tail = chain_stream(250).split_off(200);
    client2.send_events(healthy, &tail).expect("sends");
    assert_eq!(client2.flush(healthy).expect("flushes"), 250);
    let mut local = SessionBuilder::new(Algorithm::Wrs, 32, 5).query(Pattern::Triangle).build();
    local.process_batch(&chain_stream(250));
    let served = client2.estimates(healthy).expect("estimates");
    assert_eq!(served.queries[0].estimate.to_bits(), local.report().queries[0].estimate.to_bits());

    // Quarantined files are renamed aside, not deleted (forensics), and
    // their ids are never handed out again.
    let names: Vec<String> = fs::read_dir(&dir)
        .expect("readdir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.iter().any(|n| n.ends_with(".quarantined")), "{names:?}");
    assert!(!names.iter().any(|n| n.ends_with(".tmp")), "stale tmp swept: {names:?}");
    let fresh = client2.open(Algorithm::Triest, 16, None, &[Pattern::Wedge]).expect("opens");
    assert!(fresh > 9, "fresh ids must clear every id seen in the dir, got {fresh}");

    rebooted.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A data-dir written before the snapshot encoding dropped its
/// mass-kernel byte (encoding version 1) or its layered-enumeration byte
/// (version 2) must still boot: the stale sessions are quarantined
/// through the ordinary revive path, and every other session revives.
#[test]
fn snapshot_version_skew_quarantines_only_the_stale_session() {
    let dir = scratch_dir("version-skew");
    let (server, mut client) = boot_durable(&dir, 0);
    let fresh = client.open(Algorithm::Triest, 32, Some(3), &[Pattern::Triangle]).expect("opens");
    let stale_v1 = client.open(Algorithm::WsdH, 32, Some(4), &[Pattern::Triangle]).expect("opens");
    let stale_v2 = client.open(Algorithm::WsdH, 32, Some(5), &[Pattern::Triangle]).expect("opens");
    let head = chain_stream(120);
    for id in [fresh, stale_v1, stale_v2] {
        client.send_events(id, &head).expect("sends");
        client.flush(id).expect("flushes");
    }
    let blob_v1 = client.snapshot(stale_v1).expect("snapshots");
    let blob_v2 = client.snapshot(stale_v2).expect("snapshots");
    server.shutdown();

    // Rebuild the older layouts of the same sessions from identical
    // bytes: version 2 carried the layered byte after the config's
    // weight-pattern option (here a triangle: option tag + pattern tag),
    // and version 1 also the kernel byte after the WRS fraction (4 magic
    // + 4 version + 1 algorithm + 8 capacity + 8 seed + 1 pooling + 8
    // fraction).
    const KERNEL_BYTE_AT: usize = 34;
    const LAYERED_BYTE_AT: usize = KERNEL_BYTE_AT + 2;
    let older = |blob: &[u8], version: u32| {
        let mut bytes = blob[..KERNEL_BYTE_AT].to_vec();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        if version == 1 {
            bytes.push(1);
        }
        bytes.extend_from_slice(&blob[KERNEL_BYTE_AT..LAYERED_BYTE_AT]);
        bytes.push(1);
        bytes.extend_from_slice(&blob[LAYERED_BYTE_AT..]);
        bytes
    };
    let store = SessionStore::open(&dir).expect("opens store");
    store.save(stale_v1, head.len() as u64, &older(&blob_v1, 1)).expect("saves stale blob");
    store.save(stale_v2, head.len() as u64, &older(&blob_v2, 2)).expect("saves stale blob");
    drop(store);

    let (rebooted, mut client2) = boot_durable(&dir, 0);
    assert_eq!(rebooted.restored_sessions(), 1, "only the current-version session revives");
    assert_eq!(rebooted.quarantined_files(), 2, "the version-1 and -2 sessions are quarantined");
    assert_eq!(client2.flush(fresh).expect("revived session answers"), head.len() as u64);
    for stale in [stale_v1, stale_v2] {
        assert!(client2.estimates(stale).is_err(), "stale session must not be served");
        assert!(dir.join(format!("sess-{stale:016x}.snap.quarantined")).exists());
    }

    rebooted.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn close_durably_removes_and_clean_shutdown_persists() {
    let dir = scratch_dir("close-removes");

    let (server, mut client) = boot_durable(&dir, 100);
    let keep = client.open(Algorithm::Triest, 32, Some(1), &[Pattern::Wedge]).expect("opens");
    let gone = client.open(Algorithm::Triest, 32, Some(2), &[Pattern::Wedge]).expect("opens");
    let stream = chain_stream(150);
    for id in [keep, gone] {
        client.send_events(id, &stream).expect("sends");
        client.flush(id).expect("flushes");
    }
    // Close is a durable removal: the session must NOT come back.
    client.close(gone).expect("closes");
    server.shutdown();

    let (rebooted, mut client2) = boot_durable(&dir, 100);
    assert_eq!(rebooted.restored_sessions(), 1);
    assert!(client2.estimates(keep).is_ok());
    assert!(client2.estimates(gone).is_err(), "closed session must stay closed");
    // The clean shutdown persisted past the last autosave boundary:
    // the revived session holds all 150 events, not just 100.
    assert_eq!(client2.flush(keep).expect("flushes"), 150);

    rebooted.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rejected_attach_keeps_the_session_file() {
    // A rejected Attach answers an error and leaves the session alone,
    // on disk too: a reboot must revive it with every event.
    let dir = scratch_dir("rejected-attach");
    let (server, mut client) = boot_durable(&dir, 1);
    let stream = chain_stream(40);
    let id = client.open(Algorithm::Triest, 2, Some(3), &[Pattern::Wedge]).expect("opens");
    client.send_events(id, &stream).expect("sends");
    client.flush(id).expect("flushes");
    let files = || fs::read_dir(&dir).expect("readdir").count();
    let before = files();

    assert!(client.attach(id, Pattern::Triangle).is_err(), "over budget");
    assert!(client.attach(id, Pattern::Clique(9)).is_err(), "invalid order");
    assert_eq!(files(), before, "a rejected attach must not delete the session's file");
    let live = client.estimates(id).expect("session still serves");
    server.shutdown();

    let (rebooted, mut client2) = boot_durable(&dir, 1);
    assert_eq!(rebooted.restored_sessions(), 1);
    let revived = client2.estimates(id).expect("revived under its id");
    assert_eq!(revived.events, stream.len() as u64);
    let bits = |e: &wsd_serve::SessionEstimates| -> Vec<u64> {
        e.queries.iter().map(|q| q.estimate.to_bits()).collect()
    };
    assert_eq!(bits(&revived), bits(&live));
    rebooted.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Restoring from the store must round-trip through the exact canonical
/// snapshot encoding — pin that the persisted blob *is* the session's
/// wire snapshot.
#[test]
fn persisted_blob_is_the_canonical_snapshot() {
    let dir = scratch_dir("canonical");
    let (server, mut client) = boot_durable(&dir, 50);
    let id = client.open(Algorithm::WsdH, 32, Some(42), &[Pattern::Triangle]).expect("opens");
    client.send_events(id, &chain_stream(50)).expect("sends");
    client.flush(id).expect("flushes");
    let wire_blob = client.snapshot(id).expect("snapshots");
    server.shutdown();

    let store = SessionStore::open(&dir).expect("opens");
    let scan = store.scan().expect("scans");
    let persisted = scan.sessions.iter().find(|s| s.session == id).expect("persisted");
    // Clean shutdown re-saved at 50 events; both paths encode the same
    // canonical bytes.
    assert_eq!(persisted.events, 50);
    assert_eq!(persisted.blob, wire_blob);
    // And the blob revives to a working session.
    let snapshot = SessionSnapshot::decode(&persisted.blob).expect("decodes");
    let revived = StreamSession::restore(&snapshot);
    assert_eq!(revived.events(), 50);
    let _ = fs::remove_dir_all(&dir);
}

/// A well-formed, correctly checksummed session file whose adjacency
/// layout was forged — one half-edge dropped from each of two vertices
/// — must be quarantined at boot by the restore-time structure check in
/// every build profile, while the healthy file beside it revives.
#[test]
fn forged_adjacency_layout_is_quarantined_at_boot() {
    let dir = scratch_dir("forged-layout");
    let (server, mut client) = boot_durable(&dir, 0);
    // A K8 clique fits the capacity whole, so every sampled vertex has
    // degree 7.
    let clique: Vec<EdgeEvent> = (0..8u64)
        .flat_map(|a| ((a + 1)..8).map(move |b| EdgeEvent::insert(Edge::new(a, b))))
        .collect();
    let healthy = client.open(Algorithm::WsdH, 64, Some(1), &[Pattern::Triangle]).expect("opens");
    let victim = client.open(Algorithm::WsdH, 64, Some(2), &[Pattern::Triangle]).expect("opens");
    for id in [healthy, victim] {
        client.send_events(id, &clique).expect("sends");
        client.flush(id).expect("flushes");
    }
    let blob = client.snapshot(victim).expect("snapshots");
    server.shutdown();

    let mut forged = SessionSnapshot::decode(&blob).expect("decodes");
    let SamplerState::Wsd { sample, .. } = &mut forged.sampler else {
        panic!("WSD-H snapshots carry a WSD sampler state");
    };
    let vertices = &mut sample.layout.vertices;
    let (dropped, _) = vertices[0].1.pop().expect("slot");
    let other = if dropped == vertices[1].0 { 2 } else { 1 };
    vertices[other].1.pop().expect("slot");
    let store = SessionStore::open(&dir).expect("opens store");
    store.save(victim, clique.len() as u64, &forged.encode()).expect("saves forged blob");
    drop(store);

    let (rebooted, mut client2) = boot_durable(&dir, 0);
    assert_eq!(rebooted.restored_sessions(), 1, "only the healthy session revives");
    assert_eq!(rebooted.quarantined_files(), 1, "exactly the forged file is quarantined");
    assert!(dir.join(format!("sess-{victim:016x}.snap.quarantined")).exists());
    assert!(client2.estimates(victim).is_err(), "the forged session must not be served");
    assert_eq!(client2.flush(healthy).expect("healthy session answers"), clique.len() as u64);

    rebooted.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A well-tagged data-dir file with a forged heap key is rejected by
/// `SessionSnapshot::decode` itself, so boot quarantines it before any
/// restore runs; the healthy session revives. Two forgeries: a key at
/// the capacity (a restore would size the heap's index by it) and a key
/// on the arena ID the victim's final deletion freed (the next admitted
/// insert would push that ID twice).
#[test]
fn forged_heap_key_is_quarantined_at_decode() {
    for (tag, at_capacity) in [("at-capacity", true), ("freed-id", false)] {
        let dir = scratch_dir(&format!("forged-heap-key-{tag}"));
        let (server, mut client) = boot_durable(&dir, 0);
        let healthy =
            client.open(Algorithm::WsdH, 32, Some(1), &[Pattern::Triangle]).expect("opens");
        let victim =
            client.open(Algorithm::WsdH, 32, Some(2), &[Pattern::Triangle]).expect("opens");
        let head = chain_stream(120);
        for id in [healthy, victim] {
            client.send_events(id, &head).expect("sends");
            client.flush(id).expect("flushes");
        }
        let honest =
            SessionSnapshot::decode(&client.snapshot(victim).expect("snapshots")).expect("decodes");
        let SamplerState::Wsd { sample, .. } = honest.sampler else {
            panic!("WSD-H snapshots carry a WSD sampler state");
        };
        let (u, slots) = &sample.layout.vertices[0];
        let last = EdgeEvent::delete(Edge::new(*u, slots[0].0));
        client.send_events(victim, &[last]).expect("sends");
        let events = client.flush(victim).expect("flushes");
        let blob = client.snapshot(victim).expect("snapshots");
        server.shutdown();

        let mut forged = SessionSnapshot::decode(&blob).expect("decodes");
        let SamplerState::Wsd { heap, sample, .. } = &mut forged.sampler else { unreachable!() };
        let freed = *sample.layout.free.last().expect("the deletion freed an arena ID");
        heap[0].0 = if at_capacity { 32 } else { freed };
        let bytes = forged.encode();
        assert!(SessionSnapshot::decode(&bytes).is_err(), "{tag}: decode must reject the blob");
        let store = SessionStore::open(&dir).expect("opens store");
        store.save(victim, events, &bytes).expect("saves forged blob");
        drop(store);

        let (rebooted, mut client2) = boot_durable(&dir, 0);
        assert_eq!(rebooted.restored_sessions(), 1, "{tag}: only the healthy session revives");
        assert_eq!(
            rebooted.quarantined_files(),
            1,
            "{tag}: exactly the forged file is quarantined"
        );
        assert!(dir.join(format!("sess-{victim:016x}.snap.quarantined")).exists());
        assert!(client2.estimates(victim).is_err(), "{tag}: the forged session must not be served");
        assert_eq!(client2.flush(healthy).expect("healthy session answers"), head.len() as u64);

        rebooted.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}
