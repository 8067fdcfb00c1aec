"""Command-line interface for the video database.

    python -m repro demo --db ./videodb
    python -m repro ingest capture.avi --db ./videodb --genre comedy
    python -m repro info --db ./videodb
    python -m repro tree figure5 --db ./videodb
    python -m repro shots figure5 --db ./videodb
    python -m repro query "background calm, foreground busy, limit 5" --db ./videodb
    python -m repro storyboard myclip.rvid -o board.ppm
    python -m repro experiment table5 -- 0.2
    python -m repro serve --db ./videodb --port 8080
    python -m repro loadgen --url http://127.0.0.1:8080 --requests 500
    python -m repro fsck ./videodb --repair

`ingest` accepts ``.avi`` (uncompressed 24-bit) and ``.rvid`` files and
decimates to 3 fps before analysis, like the paper's pipeline.  The
database directory holds one record per video (catalog entry, scene
tree, index rows); raw frames are not stored.  `ingest`, `demo` and
`remove` commit each change as it is made: one record and one small
manifest delta.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ExtractionConfig, PipelineConfig
from .errors import QueryError, ReproError
from .experiments.report import format_table
from .index.query import query_points
from .scenetree.nodes import SceneNode
from .vdbms.database import VideoDatabase
from .vdbms.storage import DatabaseStorage, FsckReport
from .video.sampling import read_clip
from .workloads.taxonomy import VideoCategory

__all__ = ["main"]


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig | None:
    """Build a config from the extraction flags (None = library defaults)."""
    kwargs = {}
    chunk = getattr(args, "chunk_frames", None)
    if chunk is not None:
        kwargs["chunk_frames"] = None if chunk == 0 else chunk
    workers = getattr(args, "extract_workers", None)
    if workers is not None:
        kwargs["workers"] = workers
    if not kwargs:
        return None
    return PipelineConfig(extraction=ExtractionConfig(**kwargs))


def _open_existing(db_dir: str) -> VideoDatabase:
    """The database at ``db_dir``, bound to it (see
    :meth:`VideoDatabase.open`); a missing database is an error."""
    if not DatabaseStorage(db_dir).exists():
        raise ReproError(
            f"no database at {db_dir!r}; run 'ingest' or 'demo' first"
        )
    return VideoDatabase.open(db_dir)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    db = VideoDatabase.open(args.db, config=_pipeline_config(args))
    clip = read_clip(args.video)
    category = None
    if args.genre:
        category = VideoCategory(
            genres=tuple(args.genre), forms=(args.form,)
        )
    report = db.ingest(clip, category=category)
    print(
        f"ingested {report.video_id!r}: {report.n_frames} frames, "
        f"{report.n_shots} shots, scene tree height {report.tree_height}"
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .workloads.figure5 import make_figure5_clip
    from .workloads.friends import make_friends_clip

    db = VideoDatabase.open(args.db, config=_pipeline_config(args))
    for maker in (make_figure5_clip, make_friends_clip):
        clip, _ = maker()
        if clip.name in db.catalog:
            print(f"{clip.name!r} already present; skipping")
            continue
        report = db.ingest(clip)
        print(f"ingested {report.video_id!r} ({report.n_shots} shots)")
    print(f"demo database written to {args.db}")
    return 0


def _cmd_remove(args: argparse.Namespace) -> int:
    db = _open_existing(args.db)
    removed = db.remove(args.video)
    print(f"removed {args.video!r} ({removed} index entries)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    db = _open_existing(args.db)
    rows = []
    for entry in db.catalog:
        rows.append(
            {
                "video": entry.video_id,
                "frames": entry.n_frames,
                "size": f"{entry.cols}x{entry.rows}",
                "fps": entry.fps,
                "shots": entry.n_shots,
                "category": entry.category.label if entry.category else "-",
            }
        )
    print(format_table(rows, title=f"{len(db.catalog)} videos, {len(db.index)} indexed shots"))
    return 0


def _cmd_shots(args: argparse.Namespace) -> int:
    db = _open_existing(args.db)
    rows = [
        entry.to_row()
        for entry in sorted(
            db.index.entries_for(args.video),
            key=lambda e: e.shot_number,
        )
    ]
    if not rows:
        raise ReproError(f"unknown video {args.video!r}")
    print(format_table(rows, title=f"shots of {args.video!r}"))
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    db = _open_existing(args.db)
    tree = db.scene_tree(args.video)

    def show(node: SceneNode, depth: int) -> None:
        print(
            "  " * depth
            + f"{node.label}  (rep frame {node.representative_frame})"
        )
        for child in node.children:
            show(child, depth + 1)

    print(f"scene tree of {args.video!r} (height {tree.height}):")
    show(tree.root, 0)
    return 0


_BROWSE_HELP = """\
commands:
  ls          list the current node's children
  cd N        descend into child N (0-based)
  up          ascend to the parent
  next / prev step between siblings
  story       level-by-level storyboard under the current node
  summary N   budgeted summary of the whole tree (N frames)
  path        show the path from the root
  help        this message
  quit        leave the browser"""


def _cmd_browse(args: argparse.Namespace, input_stream=None) -> int:
    """Interactive non-linear browsing (the paper's Sec. 3 use case)."""
    from .scenetree.summarize import summarize_tree

    db = _open_existing(args.db)
    session = db.browse(args.video)
    stream = input_stream if input_stream is not None else sys.stdin
    interactive = input_stream is None and sys.stdin.isatty()
    print(f"browsing {args.video!r} — 'help' for commands")
    print(f"at {session.current.label}")
    while True:
        if interactive:
            print("> ", end="", flush=True)
        line = stream.readline()
        if not line:
            break
        parts = line.split()
        if not parts:
            continue
        command, *operands = parts
        try:
            if command == "quit":
                break
            elif command == "help":
                print(_BROWSE_HELP)
            elif command == "ls":
                for k, child in enumerate(session.current.children):
                    print(
                        f"  [{k}] {child.label}  "
                        f"(rep frame {child.representative_frame})"
                    )
                if not session.current.children:
                    print("  (a shot — no children)")
            elif command == "cd":
                node = session.descend(int(operands[0]) if operands else 0)
                print(f"at {node.label}")
            elif command == "up":
                print(f"at {session.ascend().label}")
            elif command == "next":
                print(f"at {session.sibling(1).label}")
            elif command == "prev":
                print(f"at {session.sibling(-1).label}")
            elif command == "story":
                for label, frame in session.storyboard():
                    print(f"  {label}: frame {frame}")
            elif command == "summary":
                budget = int(operands[0]) if operands else 5
                for label, frame in summarize_tree(session.tree, budget):
                    print(f"  {label}: frame {frame}")
            elif command == "path":
                print("  " + " -> ".join(session.path_from_root()))
            else:
                print(f"unknown command {command!r} — 'help' for commands")
        except (ReproError, ValueError, IndexError) as exc:
            print(f"error: {exc}")
    return 0


def _print_answer(answer) -> None:
    if not answer.matches:
        print("no matching shots")
        return
    for route in answer.routes:
        entry = route.entry
        print(
            f"{entry.shot_id:28s} D^v={entry.d_v:7.2f} "
            f"sqrt(Var^BA)={entry.sqrt_var_ba:6.2f} -> "
            f"{route.node.label if route.node else '-'}"
        )


def _explain_context():
    """A fresh trace context for ``query --explain`` (None when off)."""
    from .obs import TraceContext

    return TraceContext(name="query")


def _print_explain(db, ctx) -> None:
    """Render the finished trace plus index statistics (EXPLAIN output)."""
    from .obs import render_index_stats, render_trace

    print()
    print(render_trace(ctx.finish()))
    index = getattr(db, "index", None)
    if index is not None and hasattr(index, "stats"):
        print()
        print(render_index_stats(index.stats()))


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    if (args.text is None) == (args.batch_file is None):
        print(
            "error: give either a query text or --batch-file (not both)",
            file=sys.stderr,
        )
        return 2
    db = _open_existing(args.db)
    if args.batch_file is None:
        if args.explain:
            from .obs import tracing

            ctx = _explain_context()
            with tracing(ctx):
                answer = db.ask(args.text)
            _print_answer(answer)
            _print_explain(db, ctx)
        else:
            _print_answer(db.ask(args.text))
        return 0
    # Batch path: a JSON list of {"var_ba", "var_oa"} points (or an
    # object wrapping one under "queries", with an optional "limit"),
    # answered by one query_batch call.
    try:
        spec = json.loads(Path(args.batch_file).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: unreadable batch file {args.batch_file}: {exc}", file=sys.stderr)
        return 2
    limit = None
    if isinstance(spec, dict):
        limit = spec.get("limit")
        spec = spec.get("queries")
    if limit is not None and (type(limit) is not int or limit < 1):
        print(f"error: limit must be a positive integer, got {limit!r}", file=sys.stderr)
        return 2
    try:
        points = query_points(spec)
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.explain:
        from .obs import tracing

        ctx = _explain_context()
        with tracing(ctx):
            answers = db.query_batch(points, limit=limit)
    else:
        answers = db.query_batch(points, limit=limit)
    for k, ((var_ba, var_oa), answer) in enumerate(zip(points, answers), start=1):
        print(f"query {k}: Var^BA={var_ba:g} Var^OA={var_oa:g}")
        _print_answer(answer)
    if args.explain:
        _print_explain(db, ctx)
    return 0


def _cmd_storyboard(args: argparse.Namespace) -> int:
    """Analyze a video file and write its scene-tree contact sheet."""
    from .scenetree.builder import SceneTreeBuilder
    from .sbd.detector import CameraTrackingDetector
    from .video.ppm import write_storyboard

    clip = read_clip(args.video)
    detection = CameraTrackingDetector().detect(clip)
    tree = SceneTreeBuilder().build_from_detection(detection)
    out = Path(args.output) if args.output else Path(args.video).with_suffix(".ppm")
    write_storyboard(tree, clip, out)
    print(
        f"storyboard for {clip.name!r}: {detection.n_shots} shots, "
        f"tree height {tree.height} -> {out}"
    )
    return 0


def _graceful_shutdown(server, engine, drain_timeout: float) -> None:
    """Drain the service and stop the serve loop (SIGTERM handler body).

    Readiness flips first (``/ready`` answers 503 and new ingests are
    rejected as draining) while queries and in-flight jobs keep being
    served; then the in-flight work gets ``drain_timeout`` seconds to
    finish before the serve loop is stopped.  There is no final save: a
    durable database committed each job before reporting it done.
    """
    engine.begin_drain()
    try:
        engine.drain(timeout=drain_timeout)
    except ReproError as exc:
        print(f"drain incomplete: {exc}", file=sys.stderr)
    # shutdown() must not run on the serve_forever thread (it joins the
    # loop); signal handlers run on the main thread, which IS the serve
    # loop, so hand the stop to a helper thread.
    import threading

    threading.Thread(target=server.shutdown, name="drain-stop", daemon=True).start()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a database over JSON/HTTP (see docs/SERVICE.md)."""
    import signal

    from .service.engine import ServiceEngine
    from .service.server import DEFAULT_MAX_BODY_BYTES, create_server

    config = _pipeline_config(args)
    db = None
    if args.shards or (args.db and _is_cluster_root(args.db)):
        # Sharded serving: N independent durable databases behind one
        # scatter-gather coordinator (docs/CLUSTER.md).  A --db root
        # that already holds a cluster.json reopens with its saved
        # shard count when --shards is omitted; an explicit --shards
        # that disagrees is an error (resharding must be deliberate:
        # 'repro cluster rebalance --shards N').
        from .cluster import ClusterCoordinator

        # --replicas only *sets* the factor when a cluster is being
        # created (default: 2 copies); reopening defers to the saved
        # factor, and an explicit flag that contradicts it is refused
        # by open_or_create (changing R is 'repro cluster repair').
        if args.db:
            replication = args.replicas
            if replication is None and not _is_cluster_root(args.db):
                replication = 2
            db = ClusterCoordinator.open_or_create(
                args.db, args.shards or None, config=config, replication=replication
            )
        else:
            db = ClusterCoordinator.ephemeral(
                max(args.shards, 1),
                config,
                replication=args.replicas if args.replicas is not None else 2,
            )
    elif args.db:
        # A --db server is durable: open() binds the database to its
        # directory, so every accepted ingest is committed (staging
        # write -> fsync -> manifest swap) before the job reports done.
        # The engine serves it as a one-shard cluster; the directory
        # keeps its single-database layout.
        db = VideoDatabase.open(args.db, config=config)
    engine = ServiceEngine(
        db,
        config=config,
        n_workers=args.workers,
        cache_capacity=args.cache_size,
        max_queue=args.max_queue,
        default_deadline_ms=args.default_deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        trace_capacity=args.trace_capacity,
        slow_query_ms=args.slow_query_ms,
        scrub_interval_s=args.scrub_interval,
    )
    if args.demo:
        for source in ("figure5", "friends"):
            if source not in engine.cluster:
                engine.wait_for(
                    engine.submit_spec({"source": source}).job_id, timeout=300
                )
    server = create_server(
        engine,
        host=args.host,
        port=args.port,
        max_body_bytes=(
            args.max_body_bytes
            if args.max_body_bytes is not None
            else DEFAULT_MAX_BODY_BYTES
        ),
    )
    host, port = server.server_address[:2]
    health = engine.health_payload()
    sharding = (
        f" across {engine.cluster.n_shards} shards, "
        f"replication x{engine.cluster.effective_replication}"
        if engine.db is engine.cluster
        else ""
    )
    print(
        f"serving {health['videos']} videos "
        f"({health['indexed_shots']} indexed shots){sharding} "
        f"on http://{host}:{port}"
    )
    print(
        "endpoints: /health /ready /metrics /videos /query /ingest /jobs  "
        "(Ctrl-C or SIGTERM to drain and stop)"
    )

    def on_sigterm(signum, frame):  # pragma: no cover - exercised via helper
        print("SIGTERM: draining")
        _graceful_shutdown(server, engine, args.drain_timeout)

    try:
        signal.signal(signal.SIGTERM, on_sigterm)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        engine.shutdown(timeout=args.drain_timeout)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running server with a mixed ingest/query workload."""
    import json

    from .service.loadgen import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        base_url=args.url,
        n_requests=args.requests,
        workers=args.workers,
        ingests=args.ingests,
        query_pool=args.query_pool,
        batch=args.batch,
        seed=args.seed,
        deadline_ms=args.deadline_ms,
        kill_shard=args.kill_shard,
        kill_at_s=args.at_seconds,
    )
    report = run_loadgen(config)
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.output}")
    print(
        f"{report['total_requests']} requests in {report['wall_s']}s "
        f"({report['throughput_rps']} req/s), "
        f"{report['failed_requests']} failed, "
        f"{report['shed_requests']} shed (429/503)"
    )
    outage = report.get("shard_outage")
    if outage is not None:
        killed = "killed" if outage["killed"] else "KILL FAILED"
        revived = "revived" if outage["revived"] else "not revived"
        print(
            f"  shard outage: shard {outage['shard']} {killed} at "
            f"{outage['at_s']:g}s ({revived}); "
            f"{report['failover_answers']} failover answers (complete), "
            f"{report['partial_answers']} partial answers"
        )
    for op, stats in report["operations"].items():
        print(
            f"  {op:14s} n={stats['count']:<5d} p50={stats['p50_ms']:.1f}ms "
            f"p90={stats['p90_ms']:.1f}ms p99={stats['p99_ms']:.1f}ms"
        )
    cache = report.get("server_metrics", {}).get("query_cache")
    if cache:
        print(
            f"  server cache: {cache['hits']} hits / {cache['misses']} misses "
            f"(hit rate {cache['hit_rate']:.0%}), "
            f"{cache['invalidations']} invalidations"
        )
    return 0 if report["failed_requests"] == 0 and not report["ingest_failures"] else 1


def _is_cluster_root(root: str | Path) -> bool:
    """Whether ``root`` holds a sharded cluster (has a cluster.json)."""
    from .cluster.coordinator import CLUSTER_MANIFEST

    return (Path(root) / CLUSTER_MANIFEST).exists()


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    """Show shard layout, health, the copies a pass would change, and
    the records a shard could not read."""
    import json as json_module

    from .cluster import ClusterCoordinator, Rebalancer

    cluster = ClusterCoordinator.open(args.root, recover=True)
    try:
        status = cluster.status()
        plan = Rebalancer(cluster).plan()
        pending = status["pending_moves"] = len(plan)
        # A planned delete is a copy outside its video's expected shards.
        status["strays"] = [
            {"video_id": move.video_id, "shard": cluster.shard(move.source).name}
            for move in plan
            if move.kind in ("drop", "move")
        ]
        status["unrepairable"] = plan.unrepairable
        status["unreadable"] = [
            {"video_id": video_id, "shard": shard.name}
            for shard in cluster.shards
            for video_id in shard.db.quarantined
        ]
        if args.json:
            print(json_module.dumps(status, indent=2))
            return 0
        print(
            f"{args.root}: {status['n_shards']} shards "
            f"({status['shards_up']} up), {status['videos']} videos, "
            f"{status['indexed_shots']} indexed shots"
        )
        for shard in status["shards"]:
            state = "up" if shard["up"] else f"DOWN ({shard['down_reason']})"
            print(
                f"  {shard['shard']:10s} {state:6s} "
                f"{shard['videos']:5d} videos  "
                f"{shard['indexed_shots']:6d} shots"
            )
        for stray in status["strays"]:
            print(f"  stray: {stray['video_id']!r} has a copy on {stray['shard']}")
        for video_id in plan.unrepairable:
            print(f"  unrepairable: {video_id!r} has no live copy to act from")
        for bad in status["unreadable"]:
            print(f"  unreadable: {bad['video_id']!r} on {bad['shard']}")
        if pending:
            print(f"  {pending} placement actions pending (run rebalance or repair)")
        return 0
    finally:
        cluster.close()


def _cmd_cluster_rebalance(args: argparse.Namespace) -> int:
    """Move videos to their home shards; optionally reshard to N."""
    import json as json_module

    from .cluster import ClusterCoordinator, Rebalancer

    cluster = ClusterCoordinator.open(args.root, recover=True)
    try:
        rebalancer = Rebalancer(cluster)
        if args.plan:
            target = cluster.router
            if args.shards and args.shards != cluster.n_shards:
                from .cluster import ConsistentHashRouter

                target = ConsistentHashRouter(
                    args.shards, replicas=cluster.router.replicas
                )
            moves = rebalancer.plan(target)
            if args.json:
                print(json_module.dumps([m.to_dict() for m in moves], indent=2))
            else:
                for move in moves:
                    d = move.to_dict()
                    print(
                        f"  {d['video_id']!r}: {d['kind']} "
                        f"{d['source']} -> {d['dest']}"
                    )
                print(f"{len(moves)} moves planned")
            return 0
        if args.shards and args.shards != cluster.n_shards:
            report = rebalancer.reshard(args.shards, max_moves=args.max_moves)
        else:
            report = rebalancer.execute(max_moves=args.max_moves)
        _print_pass(report, args.json)
        return 0 if not report.errors else 1
    finally:
        cluster.close()


def _cmd_cluster_repair(args: argparse.Namespace) -> int:
    """One reconciler pass: exit 0 only once every video's holders are
    its expected shards."""
    from .cluster import ClusterCoordinator, Rebalancer

    cluster = ClusterCoordinator.open(args.root, recover=True)
    try:
        if args.replicas is not None and args.replicas != cluster.replication:
            cluster.set_replication(args.replicas)
            if not args.json:
                print(f"replication factor set to {args.replicas}")
        report = Rebalancer(cluster).execute()
        _print_pass(report, args.json)
        return 0 if report.converged else 1
    finally:
        cluster.close()


def _print_pass(report, as_json: bool) -> None:
    """Print one reconciler pass (``cluster rebalance`` and ``repair``)."""
    import json as json_module

    if as_json:
        print(json_module.dumps(report.to_dict(), indent=2))
        return
    print(
        f"{report.moved}/{report.planned} moves done: "
        f"{report.copies_added} copies added, "
        f"{report.divergent_repaired} divergent repaired, "
        f"{report.strays_removed} strays removed, {report.skipped} skipped"
    )
    for video_id in report.unrepairable:
        print(f"  UNREPAIRABLE {video_id!r}: no live copy to act from")
    for error in report.errors:
        print(f"  {error['video_id']!r}: {error['error']}")
    print("converged" if report.converged else "NOT CONVERGED")


def _cmd_cluster_scrub(args: argparse.Namespace) -> int:
    """Re-verify committed digests shard by shard; repair from replicas."""
    import json as json_module

    from .cluster import ClusterCoordinator, IntegrityScrubber

    cluster = ClusterCoordinator.open(args.root, recover=True)
    try:
        # Offline: one pass, no pacing (a second pass could only find
        # again what the first could not heal).
        totals = IntegrityScrubber(cluster, interval_s=0.0).run_once()
        # Clean = every corruption was healed (repaired from a replica
        # or republished from live state) and nothing was lost.
        healed = totals["videos_repaired"] + totals["files_republished"]
        clean = totals["videos_lost"] == 0 and totals["corruption_found"] == healed
        if args.json:
            print(json_module.dumps({**totals, "clean": clean}, indent=2))
            return 0 if clean else 1
        print(
            f"{totals['files_checked']} files checked: "
            f"{totals['corruption_found']} corrupt, "
            f"{totals['videos_repaired']} repaired from replicas, "
            f"{totals['files_republished']} republished, "
            f"{totals['videos_lost']} lost (no healthy replica)"
        )
        print("clean" if clean else "PROBLEMS REMAIN")
        return 0 if clean else 1
    finally:
        cluster.close()


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Verify (and optionally repair) a database directory.

    A cluster root (one holding a ``cluster.json``) is checked shard
    by shard.  Exit status 0 means every tracked file checks out; 1
    means the directory is empty, damaged, or repair could not make it
    clean.
    """
    import json as json_module

    if _is_cluster_root(args.root):
        return _fsck_cluster(args)
    code, _, payload = _fsck_single(args)
    if payload is not None:
        print(json_module.dumps(payload, indent=2))
    return code


def _fsck_cluster(args: argparse.Namespace) -> int:
    """Run fsck over every shard of a cluster root."""
    import copy
    import json as json_module

    from .cluster import ClusterCoordinator

    from .vdbms.manifest import RECORD_PREFIX

    cluster = ClusterCoordinator.open(args.root, recover=True)
    shard_roots = [(shard.name, shard.db.storage.root) for shard in cluster.shards]
    shard_names = [shard.name for shard in cluster.shards]
    n_shards = cluster.n_shards
    replication = cluster.replication
    holders = cluster.holders_snapshot()
    cluster.close()
    worst = 0
    reports = []
    #: video id -> names of the shards whose copy fsck flagged
    damaged_videos: dict[str, set[str]] = {}
    for name, shard_root in shard_roots:
        shard_args = copy.copy(args)
        shard_args.root = str(shard_root)
        if not args.json:
            print(f"--- {name} ---")
        code, found, document = _fsck_single(shard_args)
        if found.mode == "empty":
            code = 0  # no video was ever placed on this shard
        if document is not None:
            reports.append({"shard": name, "clean": code == 0, "report": document})
        for check in found.problems():
            if check.logical.startswith(RECORD_PREFIX):
                video_id = check.logical[len(RECORD_PREFIX):]
                damaged_videos.setdefault(video_id, set()).add(name)
        worst = max(worst, code)
    # A damaged video with a copy on a shard fsck did *not* flag is
    # recoverable without backups — point the operator at ``cluster
    # repair``.  (The recover-mode open above may already have dropped
    # the rotted copy from the holder map, so any surviving holder
    # outside the damaged set counts.)
    repairable = sorted(
        video_id
        for video_id, sick in damaged_videos.items()
        if any(
            shard_names[shard_id] not in sick
            for shard_id in holders.get(video_id, ())
        )
    )
    if args.json:
        payload: dict = {"cluster": True, "n_shards": n_shards, "shards": reports}
        if repairable:
            payload["repairable_from_replica"] = repairable
            payload["hint"] = f"repro cluster repair --root {args.root}"
        print(json_module.dumps(payload, indent=2))
    else:
        print(f"cluster: {n_shards} shards, replication x{replication}, "
              + ("clean" if worst == 0 else "PROBLEMS FOUND"))
        if repairable:
            print(
                f"  {len(repairable)} damaged videos have a replica on "
                f"another shard — run "
                f"'repro cluster repair --root {args.root}' to restore them"
            )
    return worst


def _fsck_single(args: argparse.Namespace) -> tuple[int, FsckReport, dict | None]:
    """Verify (and optionally repair) one database directory.

    Returns the exit status, the pre-repair
    :class:`~repro.vdbms.storage.FsckReport` (the cluster fsck
    cross-references its damage against the replica holder map, so it
    must see what fsck found, not the clean state a ``--repair``
    rewrite leaves behind) and, with ``--json``, the document to print;
    without ``--json`` the report is printed here.
    """
    storage = DatabaseStorage(args.root)
    report = found = storage.fsck()
    quarantined_files: list[str] = []
    dropped_videos: list[str] = []
    if args.repair and report.mode == "manifest" and (
        report.problems() or report.untracked
    ):
        # Reload what survives first (a broken manifest chain is
        # beyond repair and raises here), then move damaged and
        # untracked files aside and rewrite a clean generation.
        db = VideoDatabase.load(args.root, recover=True)
        for check in report.problems():
            if check.path and (storage.root / check.path).exists():
                storage.quarantine(check.path)
                quarantined_files.append(check.path)
        for relpath in report.untracked:
            if (storage.root / relpath).exists():
                storage.quarantine(relpath)
                quarantined_files.append(relpath)
        dropped_videos = list(db.quarantined)
        db.save(args.root)
        report = storage.fsck()
    if args.json:
        payload = report.to_dict()
        if args.repair:
            payload["quarantined_files"] = quarantined_files
            payload["dropped_videos"] = dropped_videos
        return (0 if report.clean else 1), found, payload
    generation = f" generation {report.generation}" if report.generation else ""
    print(f"{report.root}: {report.mode}{generation}")
    for check in report.checks:
        marker = "ok" if check.ok else "BAD"
        detail = f"  ({check.detail})" if check.detail else ""
        print(f"  [{marker:3s}] {check.logical:24s} {check.status}{detail}")
    for relpath in report.untracked:
        print(f"  [ - ] {relpath} (untracked)")
    for relpath in quarantined_files:
        print(f"  quarantined {relpath}")
    for video_id in dropped_videos:
        print(f"  dropped video {video_id!r} (unreadable record)")
    if report.mode == "empty":
        print("  no database here")
        return 1, found, None
    hint = " (try --repair)" if report.mode == "manifest" else ""
    print("clean" if report.clean else f"PROBLEMS FOUND{hint}")
    return (0 if report.clean else 1), found, None


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    known = (
        "table1", "table2", "table3", "table4", "table5",
        "figure6", "figure7", "figures8_10", "sensitivity",
        "retrieval_matrix",
    )
    if args.name not in known:
        raise ReproError(
            f"unknown experiment {args.name!r}; choose from {', '.join(known)}"
        )
    module = importlib.import_module(f"repro.experiments.{args.name}")
    old_argv = sys.argv
    try:
        sys.argv = [f"repro.experiments.{args.name}", *args.extra]
        module.main()
    finally:
        sys.argv = old_argv
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Camera-tracking video database (Oh & Hua, SIGMOD 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_extraction_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--chunk-frames",
            type=int,
            default=None,
            metavar="N",
            help="extraction chunk size in frames; 0 disables chunking "
            "(default: 256, see docs/PERFORMANCE.md)",
        )
        parser.add_argument(
            "--extract-workers",
            type=int,
            default=None,
            metavar="N",
            help="threads extracting chunks concurrently (default: 1)",
        )

    p = sub.add_parser("ingest", help="analyze a video file into the database")
    p.add_argument("video", help="path to an .avi or .rvid file")
    p.add_argument("--db", required=True, help="database directory")
    p.add_argument("--genre", action="append", default=[], help="genre label (repeatable)")
    p.add_argument("--form", default="feature", help="form label (default: feature)")
    add_extraction_flags(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("demo", help="build a demo database from the paper's clips")
    p.add_argument("--db", required=True)
    add_extraction_flags(p)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("info", help="show the catalog")
    p.add_argument("--db", required=True)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("remove", help="drop a video from the database")
    p.add_argument("video")
    p.add_argument("--db", required=True)
    p.set_defaults(func=_cmd_remove)

    p = sub.add_parser("shots", help="list one video's indexed shots")
    p.add_argument("video")
    p.add_argument("--db", required=True)
    p.set_defaults(func=_cmd_shots)

    p = sub.add_parser("tree", help="print one video's scene tree")
    p.add_argument("video")
    p.add_argument("--db", required=True)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("browse", help="interactively browse a video's scene tree")
    p.add_argument("video")
    p.add_argument("--db", required=True)
    p.set_defaults(func=_cmd_browse)

    p = sub.add_parser("query", help="run an impression-language query")
    p.add_argument(
        "text",
        nargs="?",
        help='e.g. "background calm, foreground busy, limit 5"',
    )
    p.add_argument("--db", required=True)
    p.add_argument(
        "--batch-file",
        metavar="PATH",
        help="JSON file with a batch of query points — a list of "
        '{"var_ba": .., "var_oa": ..} objects (or {"queries": [...], '
        '"limit": ..}) answered in one batch call',
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the query's span tree (band-probe bounds, candidate "
        "and pruned counts, per-stage timings) plus "
        "index statistics after the results (docs/OBSERVABILITY.md)",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "storyboard", help="write a scene-tree contact sheet (PPM) for a video file"
    )
    p.add_argument("video", help="path to an .avi or .rvid file")
    p.add_argument("-o", "--output", help="output .ppm path (default: alongside input)")
    p.set_defaults(func=_cmd_storyboard)

    p = sub.add_parser(
        "serve", help="serve a database over JSON/HTTP (docs/SERVICE.md)"
    )
    p.add_argument("--db", help="database directory to load (served in-memory when omitted)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 picks an ephemeral port")
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="serve a sharded cluster of N databases (scatter-gather "
        "queries, per-shard ingest queues; docs/CLUSTER.md); a --db "
        "root that already holds a cluster reopens with its saved "
        "shard count when omitted",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="R",
        help="copies of each video when creating a cluster (default: 2; "
        "an existing cluster keeps its saved factor — change it with "
        "'repro cluster repair --replicas R')",
    )
    p.add_argument(
        "--scrub-interval",
        type=float,
        default=None,
        metavar="S",
        help="run the background integrity scrubber, sleeping S seconds "
        "between batches (cluster databases only; default: off)",
    )
    p.add_argument("--workers", type=int, default=2, help="ingest worker threads")
    p.add_argument("--cache-size", type=int, default=256, help="query-cache entries")
    p.add_argument(
        "--demo", action="store_true", help="preload the paper's demo clips"
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="bound the ingest queue; over-capacity submits answer 429 "
        "(default: unbounded)",
    )
    p.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        metavar="MS",
        help="default per-request deadline in ms for requests without an "
        "X-Deadline-Ms header (default: none)",
    )
    p.add_argument(
        "--max-body-bytes",
        type=int,
        default=None,
        metavar="N",
        help="reject larger request bodies with 413 (default: 1 MiB)",
    )
    p.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="consecutive storage failures that open the circuit breaker",
    )
    p.add_argument(
        "--breaker-reset",
        type=float,
        default=5.0,
        metavar="S",
        help="seconds the breaker stays open before a half-open probe",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds to let in-flight ingests finish on SIGTERM/shutdown",
    )
    p.add_argument(
        "--trace-capacity",
        type=int,
        default=64,
        metavar="N",
        help="recent request traces retained for GET /debug/traces "
        "(0 disables tracing entirely)",
    )
    p.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log requests slower than MS and pin their traces in a "
        "separate slow-trace ring (default: off)",
    )
    add_extraction_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "loadgen", help="drive a running server with a mixed workload"
    )
    p.add_argument("--url", default="http://127.0.0.1:8080", help="server base URL")
    p.add_argument("--requests", type=int, default=200, help="total client requests")
    p.add_argument("--workers", type=int, default=4, help="client threads")
    p.add_argument("--ingests", type=int, default=2, help="ingest jobs to interleave")
    p.add_argument("--query-pool", type=int, default=8, help="distinct query points")
    p.add_argument(
        "--batch",
        type=int,
        default=0,
        metavar="B",
        help="send batches of B points to POST /query/batch instead of "
        "single /query requests",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="send X-Deadline-Ms with every request",
    )
    p.add_argument(
        "--kill-shard",
        type=int,
        default=None,
        metavar="N",
        help="kill shard N mid-run via POST /admin/shards/N/kill "
        "(replication failover drill; revived when the run ends)",
    )
    p.add_argument(
        "--at-seconds",
        type=float,
        default=1.0,
        metavar="S",
        help="when to kill the shard, seconds after the run starts "
        "(default: 1.0; requires --kill-shard)",
    )
    p.add_argument("-o", "--output", help="write the full JSON report here")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "fsck", help="verify a database directory against its manifest"
    )
    p.add_argument("root", help="database directory")
    p.add_argument(
        "--repair",
        action="store_true",
        help="quarantine damaged/untracked files and rewrite a clean state",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser(
        "cluster",
        help="inspect, rebalance, repair, or scrub a sharded cluster "
        "(docs/CLUSTER.md)",
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    cp = cluster_sub.add_parser("status", help="shard layout, health, stray copies")
    cp.add_argument("--root", required=True, help="cluster directory")
    cp.add_argument("--json", action="store_true", help="emit JSON")
    cp.set_defaults(func=_cmd_cluster_status)

    cp = cluster_sub.add_parser(
        "rebalance",
        help="move videos to their home shards; --shards N reshards online",
    )
    cp.add_argument("--root", required=True, help="cluster directory")
    cp.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="grow or shrink the cluster to N shards before settling",
    )
    cp.add_argument(
        "--max-moves",
        type=int,
        default=None,
        metavar="M",
        help="bound this run to M moves (rerun to continue)",
    )
    cp.add_argument(
        "--plan",
        action="store_true",
        help="print the planned moves without executing them",
    )
    cp.add_argument("--json", action="store_true", help="emit JSON")
    cp.set_defaults(func=_cmd_cluster_rebalance)

    cp = cluster_sub.add_parser(
        "repair",
        help="one reconciler pass: converge every video to its R expected copies",
    )
    cp.add_argument("--root", required=True, help="cluster directory")
    cp.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="R",
        help="first set the replication factor to R, then converge to it",
    )
    cp.add_argument("--json", action="store_true", help="emit JSON")
    cp.set_defaults(func=_cmd_cluster_repair)

    cp = cluster_sub.add_parser(
        "scrub",
        help="re-verify every committed digest; repair bit rot from replicas",
    )
    cp.add_argument("--root", required=True, help="cluster directory")
    cp.add_argument("--json", action="store_true", help="emit JSON")
    cp.set_defaults(func=_cmd_cluster_scrub)

    p = sub.add_parser("experiment", help="run a paper experiment driver")
    p.add_argument("name", help="table1..table5, figure6, figure7, figures8_10, sensitivity, retrieval_matrix")
    p.add_argument("extra", nargs="*", help="arguments passed to the driver")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped to a consumer that stopped reading (head);
        # exit quietly like a well-behaved Unix tool.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
