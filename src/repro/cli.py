"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — run the quickstart scenario end to end.
* ``attack``    — run one of the paper's attacks (consistency / fork /
  rollback / replay / tamper / crossmig) and print the outcome.
* ``vm``        — migrate a whole VM (optionally with enclaves / agent)
  and print the Figure-10 quantities.
* ``faults``    — migrate under an injected fault plan and print whether
  the protocol completed (after how many retries) or cleanly aborted;
  exits non-zero on abort or on divergence from a fault-free reference.
* ``recover``   — crash one party at a journal-record boundary, rebuild
  the migration from the write-ahead journals, and print the invariant
  verdict.
* ``trace``     — run one seeded migration and export its span trace
  (Chrome trace_event JSON, JSONL, or the phase-timeline report).
* ``metrics``   — run one seeded migration and export its metrics
  snapshot (Prometheus text or JSON); ``--require`` turns it into a CI
  gate that fails when a metric is absent or zero.
* ``explain``   — run one seeded migration and print the critical-path
  report: who to blame for every nanosecond of total time and downtime,
  plus the causal DAG's fault summary; ``--require-blame`` turns it into
  a CI gate that fails unless the named span/transfer is on a blame path.
* ``snapshot``  — run a migration (or load an existing snapshot) and
  save the comparable :class:`~repro.telemetry.diff.RunSnapshot` JSON.
* ``diff``      — compare two runs (specs or snapshot files) and rank
  what moved; ``--attribute``/``--min-attributed-share`` turn it into a
  CI gate on who gets the blame for a downtime delta.
* ``profile``   — run one seeded migration and print its folded stacks
  (flamegraph input): the critical-path walk over the whole run, with
  exact weights that sum to the run's virtual duration.
* ``inventory`` — print the system inventory (modules and their paper
  sections).

``faults`` and ``recover`` take ``--json`` to emit their report as one
machine-readable JSON object instead of prose (same exit codes).
"""

from __future__ import annotations

import argparse
import json
import sys


def _json_dumps(payload) -> str:
    from repro.telemetry.exporters import json_safe

    return json.dumps(json_safe(payload), indent=2, sort_keys=True)


def _write_or_print(text: str, out: str | None, what: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {what} to {out}")
    else:
        print(text)


def _cmd_demo(_args) -> int:
    from repro import MigrationOrchestrator, build_testbed
    from repro.sdk import HostApplication, counter_program

    tb = build_testbed(seed=1)
    built = tb.builder.build(
        "cli-demo", counter_program("cli/demo-v1"), n_workers=1, global_names=("n",)
    )
    tb.owner.register_image(built)
    app = HostApplication(tb.source, tb.source_os, built.image, [], owner=tb.owner).launch()
    print(f"built enclave, MRENCLAVE {built.image.mrenclave.hex()[:24]}…")
    print(f"counter after 3 calls: {[app.ecall_once(0, 'incr') for _ in range(3)][-1]}")
    result = MigrationOrchestrator(tb).migrate_enclave(app)
    print(f"migrated ({result.checkpoint_bytes} checkpoint bytes on the wire, sealed)")
    print(f"counter on the target: {result.target_app.ecall_once(0, 'incr', 0)}")
    print(f"virtual time elapsed: {tb.clock.now_ms:.2f} ms")
    return 0


def _cmd_attack(args) -> int:
    name = args.name
    if name == "consistency":
        from repro.attacks.consistency import run_consistency_scenario

        for checkpointer in ("naive", "two-phase"):
            outcome = run_consistency_scenario(checkpointer, malicious_scheduler=True)
            print(
                f"{checkpointer:10s} vs lying scheduler: A+B = {outcome.restored_sum} "
                f"({'CONSISTENT' if outcome.consistent else 'TORN'})"
            )
    elif name == "fork":
        from repro.attacks.fork import run_fork_scenario

        outcome = run_fork_scenario("secure")
        print(f"eve got the mail: {outcome.eve_got_mail}")
        for step in outcome.blocked_steps:
            print(f"blocked: {step}")
    elif name == "rollback":
        from repro.attacks.rollback import run_rollback_scenario

        outcome = run_rollback_scenario("migration")
        print(f"still locked after migration: {outcome.locked_after}")
        audited = run_rollback_scenario("snapshot")
        print(
            f"snapshot abuse: {audited.extra_attempts_via_snapshots} extra guesses, "
            f"{audited.resumes_logged} resumes logged, "
            f"{audited.flagged_rollbacks} flagged"
        )
    elif name == "replay":
        from repro.attacks.replay import run_replay_scenario

        outcome = run_replay_scenario()
        print(f"all replays blocked: {outcome.all_blocked} ({outcome})")
    elif name == "tamper":
        from repro.attacks.tamper import run_tamper_scenario

        for mode in ("flip", "truncate"):
            outcome = run_tamper_scenario(mode)
            print(f"{mode}: detected={outcome.detected} ({outcome.error})")
    elif name == "crossmig":
        from repro.attacks.crossmig import run_cross_migration_matrix

        outcomes = run_cross_migration_matrix(seed=args.seed)
        for outcome in outcomes:
            verdict = (
                f"refused with {outcome.refusal}" if outcome.blocked else "NOT BLOCKED"
            )
            print(
                f"{outcome.attack:17s} {verdict:33s} "
                f"state intact: {outcome.state_intact}"
            )
        if not all(o.blocked for o in outcomes):
            return 1
    else:  # pragma: no cover - argparse restricts choices
        return 1
    return 0


def _cmd_vm(args) -> int:
    from repro import build_testbed
    from repro.migration.agent import AgentService, build_agent_image
    from repro.migration.vm import VmMigrationManager, migrate_plain_vm
    from repro.sdk import HostApplication, WorkerSpec
    from repro.workloads.apps import build_app_image

    tb = build_testbed(seed=args.seed)
    if args.enclaves == 0:
        report = migrate_plain_vm(tb)
        print(
            f"total {report.total_ms:.0f} ms | downtime {report.downtime_ms:.2f} ms | "
            f"transferred {report.transferred_mb:.1f} MB | rounds {report.precopy_rounds}"
        )
        return 0
    agent = None
    if args.agent:
        agent_built = build_agent_image(tb.builder)
        tb.owner.set_agent_image(agent_built)
    apps = []
    for i in range(args.enclaves):
        built = build_app_image(tb.builder, "cr4", flavor=f"cli{i}")
        tb.owner.register_image(built)
        apps.append(
            HostApplication(
                tb.source, tb.source_os, built.image,
                workers=[WorkerSpec("process", args=1, repeat=None)],
                owner=tb.owner,
            ).launch()
        )
    if args.agent:
        agent = AgentService(tb, agent_built)
    for _ in range(30):
        tb.source_os.engine.step_round()
    result = VmMigrationManager(tb, apps).migrate(agent=agent)
    print(
        f"total {result.total_ms:.0f} ms | downtime {result.downtime_ms:.2f} ms | "
        f"transferred {result.transferred_mb:.1f} MB | "
        f"checkpointing {result.prep_ms:.2f} ms | restore {result.restore_ms:.2f} ms"
    )
    return 0


def _cmd_faults(args) -> int:
    from repro import build_testbed
    from repro.errors import MigrationAborted
    from repro.faults import FaultInjector, FaultPlan, parse_fault_spec
    from repro.migration.orchestrator import MigrationOrchestrator, RetryPolicy
    from repro.sdk import HostApplication, counter_program

    try:
        plan = parse_fault_spec(args.plan) if args.plan else FaultPlan(seed=args.seed)
    except ValueError as exc:
        raise SystemExit(f"repro faults: bad --plan: {exc}")
    plan.seed = args.seed
    try:
        retry = RetryPolicy(
            max_attempts=args.retries, chunk_bytes=args.chunk_bytes or None
        )
    except ValueError as exc:
        raise SystemExit(f"repro faults: {exc}")

    # Same shape as the demo: a counter enclave with one worker.
    tb = build_testbed(seed=args.seed)
    program = counter_program("cli/faults-v1")
    built = tb.builder.build("cli-faults", program, n_workers=1, global_names=("n",))
    tb.owner.register_image(built)
    app = HostApplication(
        tb.source, tb.source_os, built.image, [], owner=tb.owner
    ).launch()
    app.ecall_once(0, "incr", 7)
    if args.storage:
        from repro.sdk import control as _control

        app.library.control_call(_control.storage_put, "cli-note", "survives faults")

    report: dict = {"plan": plan.describe() or None, "seed": args.seed}
    if not args.json:
        print(f"fault plan: {plan.describe() or '(none)'}")
    baseline_ms = None
    reference_counter = None
    if not plan.empty:
        # Fault-free reference run: the degraded-mode overhead figure and
        # the divergence oracle (same program, same inputs, no faults).
        ref_tb = build_testbed(seed=args.seed)
        ref_built = ref_tb.builder.build(
            "cli-faults-ref", program, n_workers=1, global_names=("n",)
        )
        ref_tb.owner.register_image(ref_built)
        ref_app = HostApplication(
            ref_tb.source, ref_tb.source_os, ref_built.image, [], owner=ref_tb.owner
        ).launch()
        ref_app.ecall_once(0, "incr", 7)
        if args.storage:
            from repro.sdk import control as _control

            ref_app.library.control_call(
                _control.storage_put, "cli-note", "survives faults"
            )
        t0 = ref_tb.clock.now_ms
        ref_result = MigrationOrchestrator(ref_tb, retry=retry).migrate_enclave(ref_app)
        baseline_ms = ref_tb.clock.now_ms - t0
        reference_counter = ref_result.target_app.ecall_once(0, "incr", 0)

    orch = MigrationOrchestrator(tb, retry=retry, faults=FaultInjector(plan))
    t0 = tb.clock.now_ms
    try:
        result = orch.migrate_enclave(app)
    except MigrationAborted as exc:
        from repro.durability import wal as _wal

        report.update(
            outcome="aborted",
            error=str(exc),
            stats=orch.stats.as_dict(),
            faults_fired=dict(tb.trace.tally("fault")),
            storage=_wal.storage_digests(tb.durable),
            timeline=tb.telemetry.timeline().as_dict(),
        )
        if args.json:
            print(_json_dumps(report))
        else:
            print(f"outcome: ABORTED — {exc}")
            print(f"stats:   {orch.stats.as_dict()}")
            print(f"faults fired: {dict(tb.trace.tally('fault')) or '(none)'}")
        return 1
    elapsed_ms = tb.clock.now_ms - t0
    counter = result.target_app.ecall_once(0, "incr", 0)
    diverged = reference_counter is not None and counter != reference_counter
    from repro.durability import wal as _wal

    storage = _wal.storage_digests(tb.durable)
    if storage and not args.json:
        for ns, digest in sorted(storage.items()):
            print(
                f"sealed store {ns}: blob sha256 {digest['sha256']} "
                f"(version {digest['version']}, handoff {digest['handoff']}, "
                f"retired {digest['retired']})"
            )
    report.update(
        storage=storage,
        outcome="diverged" if diverged else "completed",
        attempts=result.attempts,
        counter=counter,
        reference_counter=reference_counter,
        stats=result.stats.as_dict(),
        faults_fired=dict(tb.trace.tally("fault")),
        elapsed_ms=elapsed_ms,
        baseline_ms=baseline_ms,
        timeline=tb.telemetry.timeline().as_dict(),
    )
    if args.json:
        print(_json_dumps(report))
        return 2 if diverged else 0
    print(f"outcome: COMPLETED in {result.attempts} attempt(s) — counter={counter}")
    print(f"stats:   {result.stats.as_dict()}")
    print(f"faults fired: {dict(tb.trace.tally('fault')) or '(none)'}")
    if baseline_ms is not None:
        print(
            f"degraded-mode overhead: {elapsed_ms:.2f} ms vs "
            f"{baseline_ms:.2f} ms fault-free (+{elapsed_ms - baseline_ms:.2f} ms)"
        )
    if diverged:
        print(
            f"outcome: DIVERGED — counter {counter} under faults vs "
            f"{reference_counter} in the fault-free reference"
        )
        return 2
    return 0


def _cmd_recover(args) -> int:
    from repro import build_testbed
    from repro.durability.recovery import MAX_RECOVERIES, recover_until_rest
    from repro.durability.sweep import COUNTER_START, build_sweep_app
    from repro.errors import DurabilityError, MigrationAborted, PartyCrash
    from repro.faults import FaultInjector, parse_fault_spec
    from repro.migration.orchestrator import FAULT_TOLERANT_RETRY, MigrationOrchestrator

    try:
        plan = parse_fault_spec(args.plan)
    except ValueError as exc:
        raise SystemExit(f"repro recover: bad --plan: {exc}")
    if not plan.record_crash_faults:
        raise SystemExit(
            "repro recover: the plan needs a crash-record:PARTY:N fault to recover from"
        )
    plan.seed = args.seed
    tb = build_testbed(seed=args.seed)
    app = build_sweep_app(tb, storage=args.storage)
    orch = MigrationOrchestrator(
        tb, retry=FAULT_TOLERANT_RETRY, faults=FaultInjector(plan)
    )
    out: dict = {"plan": plan.describe(), "seed": args.seed}
    if not args.json:
        print(f"fault plan: {plan.describe()}")
    try:
        orch.migrate_enclave(app)
        out.update(outcome="completed", detail="the crash point was never reached")
        if args.json:
            print(_json_dumps(out))
        else:
            print("outcome: COMPLETED (the crash point was never reached)")
        return 0
    except MigrationAborted as exc:
        out.update(outcome="aborted", error=str(exc))
        if args.json:
            print(_json_dumps(out))
        else:
            print(f"outcome: ABORTED before the crash point — {exc}")
        return 1
    except PartyCrash as exc:
        out["crash"] = str(exc)
        if not args.json:
            print(f"crash:   {exc}")

    # A crash *pair* plan (crash-record:A:N+B:M) lands its second crash
    # inside the first recovery, which is then re-driven.
    crashes: list[str] = []
    refusal = None
    try:
        report, recoveries, _ = recover_until_rest(
            tb, app, orchestrator=orch, crashes=crashes
        )
    except DurabilityError as exc:
        refusal = exc
    if crashes:
        out["crashes_in_recovery"] = crashes
        if not args.json:
            for crash in crashes:
                print(f"crash during recovery (re-driving): {crash}")
    if refusal is not None:
        out.update(outcome="refused", error=f"{type(refusal).__name__}: {refusal}")
        if args.json:
            print(_json_dumps(out))
        else:
            print(f"recovery REFUSED: {type(refusal).__name__}: {refusal}")
        return 3
    if report is None:
        out.update(
            outcome="refused",
            error=f"recovery did not converge within {MAX_RECOVERIES} drives",
        )
        if args.json:
            print(_json_dumps(out))
        else:
            print(f"recovery REFUSED: no convergence in {MAX_RECOVERIES} drives")
        return 3
    out["recoveries"] = recoveries
    if not args.json:
        print(f"recovery: {report.outcome} — {report.detail}")
        for name, kinds in sorted(report.journal_kinds.items()):
            print(f"  journal {name}: {' -> '.join(kinds) if kinds else '(empty)'}")
    survivor = report.target_app
    if survivor is None and report.live_instances:
        survivor = app
    counter = survivor.ecall_once(0, "read") if survivor is not None else None
    if not args.json:
        print(
            f"live instances: {report.live_instances}"
            + (f" (counter={counter})" if counter is not None else "")
        )

    from repro.errors import InvariantViolation

    try:
        tb.monitor.check_now()
    except InvariantViolation:
        pass
    violations = list(tb.monitor.violations)
    diverged = report.live_instances not in (0, 1) or (
        counter is not None and counter != COUNTER_START
    )
    from repro.durability import wal as _wal

    storage = _wal.storage_digests(tb.durable)
    if storage and not args.json:
        for ns, digest in sorted(storage.items()):
            print(
                f"sealed store {ns}: blob sha256 {digest['sha256']} "
                f"(version {digest['version']}, handoff {digest['handoff']}, "
                f"retired {digest['retired']})"
            )
    out.update(
        outcome=report.outcome,
        detail=report.detail,
        journal_kinds={k: list(v) for k, v in sorted(report.journal_kinds.items())},
        live_instances=report.live_instances,
        counter=counter,
        storage=storage,
        violations=violations,
        diverged=diverged,
        invariants_clean=not violations and not diverged,
    )
    if args.json:
        print(_json_dumps(out))
        return 2 if (violations or diverged) else 0
    if violations:
        for violation in violations:
            print(f"invariant VIOLATED: {violation}")
        return 2
    if diverged:
        print("invariant VIOLATED: recovered state diverged")
        return 2
    print("invariants: CLEAN (at most one live instance, state intact)")
    return 0


def _cmd_trace(args) -> int:
    from repro.telemetry.exporters import to_chrome_trace, to_jsonl
    from repro.telemetry.runs import run_seeded_migration

    tb = run_seeded_migration(seed=args.seed, vm=args.vm)
    tel = tb.telemetry
    if args.format == "chrome":
        text = json.dumps(to_chrome_trace(tel), sort_keys=True)
    elif args.format == "jsonl":
        text = to_jsonl(tel)
    elif args.format == "otlp":
        from repro.telemetry.otlp import default_resource, to_otlp_traces

        text = _json_dumps(
            to_otlp_traces(tel, resource=default_resource(tel, seed=str(args.seed)))
        )
    else:  # report
        text = _json_dumps(tel.timeline().as_dict())
    _write_or_print(text, args.out, f"{args.format} trace")
    return 0


def _cmd_metrics(args) -> int:
    from repro.telemetry.exporters import to_prometheus
    from repro.telemetry.runs import run_seeded_migration

    tb = run_seeded_migration(seed=args.seed, vm=args.vm)
    metrics = tb.trace.metrics
    if args.format == "prom":
        text = to_prometheus(metrics)
    elif args.format == "otlp":
        from repro.telemetry.otlp import default_resource, to_otlp_metrics

        tel = tb.telemetry
        text = _json_dumps(
            to_otlp_metrics(tel, resource=default_resource(tel, seed=str(args.seed)))
        )
    else:  # json
        text = _json_dumps(metrics.snapshot())
    _write_or_print(text, args.out, f"{args.format} metrics snapshot")
    failed = False
    for name in args.require:
        # A family with labels satisfies the gate if any series is nonzero.
        value = metrics.value(name, default=0) or metrics.sum_across_labels(name)
        if not value:
            print(f"repro metrics: required metric {name!r} is absent or zero")
            failed = True
    return 1 if failed else 0


def _cmd_fleet(args) -> int:
    from repro.fleet import (
        FleetConfig,
        FleetConsole,
        FleetRunner,
        blame_report,
        write_contention_bench,
        write_fleet_bench,
    )

    hosts = args.hosts
    if args.action == "blame" and not hosts:
        # Blame is about contention; default to an oversubscribed shape.
        hosts = 4
    seeds = tuple(s.strip() for s in str(args.seeds).split(",") if s.strip())
    try:
        config = FleetConfig(
            n=args.n,
            seeds=tuple(int(s) if s.isdigit() else s for s in seeds) or (1,),
            max_inflight=args.max_inflight,
            fault_every=args.fault_every,
            fault_spec=args.fault_plan,
            hosts=hosts,
            epc_per_host=args.epc_per_host,
            bw_per_host=args.bw_per_host,
        )
    except ValueError as exc:
        raise SystemExit(f"repro fleet: {exc}")
    # With --json, stdout carries exactly one JSON document; live frames
    # go to stderr.
    console = FleetConsole(
        n=config.n,
        stream=(sys.stderr if args.json else sys.stdout) if args.watch else None,
        frame_every=args.frame_every if args.watch else 0,
    )
    report = FleetRunner(config, on_record=console.on_record).run()
    snapshot = console.snapshot(report)
    if args.console_out:
        with open(args.console_out, "w", encoding="utf-8") as fh:
            fh.write(snapshot)
        print(f"wrote console snapshot to {args.console_out}", file=sys.stderr)
    if args.otlp_out:
        import os as _os

        _os.makedirs(args.otlp_out, exist_ok=True)
        metrics_path = _os.path.join(args.otlp_out, "fleet-metrics.otlp.json")
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(_json_dumps(report.otlp_metrics()) + "\n")
        if report.otlp_traces_sample is not None:
            traces_path = _os.path.join(args.otlp_out, "sample-trace.otlp.json")
            with open(traces_path, "w", encoding="utf-8") as fh:
                fh.write(_json_dumps(report.otlp_traces_sample) + "\n")
        print(f"wrote OTLP artifacts to {args.otlp_out}", file=sys.stderr)
    if args.heatmap_out:
        with open(args.heatmap_out, "w", encoding="utf-8") as fh:
            fh.write(console.heatmap())
        print(f"wrote host heatmap to {args.heatmap_out}", file=sys.stderr)
    bench_path = write_fleet_bench(report, bench_dir=args.bench_dir or None)
    if bench_path:
        print(f"wrote {report.config.series_key()} to {bench_path}", file=sys.stderr)
    contention_path = write_contention_bench(report, bench_dir=args.bench_dir or None)
    if contention_path:
        print(
            f"wrote contention series {report.config.series_key()} to"
            f" {contention_path}",
            file=sys.stderr,
        )
    if args.action == "blame":
        blame = blame_report(report, factor=args.blame_factor)
        text = _json_dumps(blame.as_dict()) + "\n" if args.json else blame.render_text()
        if args.blame_out:
            with open(args.blame_out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote blame report to {args.blame_out}", file=sys.stderr)
        else:
            print(text, end="")
        return 1 if report.failed else 0
    if args.json:
        print(_json_dumps(report.as_dict()))
    else:
        print(snapshot, end="")
    return 1 if report.failed else 0


def _cmd_explain(args) -> int:
    from repro.telemetry.causal import build_dag
    from repro.telemetry.criticalpath import explain_migration
    from repro.telemetry.exporters import to_chrome_trace
    from repro.telemetry.runs import run_seeded_migration

    tb = run_seeded_migration(seed=args.seed)
    report = explain_migration(tb.telemetry, tb.network)
    if args.format == "json":
        text = _json_dumps(report.as_dict())
    elif args.format == "chrome":
        text = json.dumps(
            to_chrome_trace(tb.telemetry, network=tb.network, critical=report),
            sort_keys=True,
        )
    elif args.format == "dot":
        text = build_dag(tb.telemetry, tb.network).to_dot()
    else:  # text
        text = report.render_text()
    _write_or_print(text, args.out, f"{args.format} explain report")
    unmatched = [q for q in args.require_blame if not report.blames(q)]
    for query in unmatched:
        print(f"repro explain: required blame {query!r} is not on any blame path")
    return 1 if unmatched else 0


def _cmd_snapshot(args) -> int:
    from repro.telemetry.diff import resolve_run

    snapshot = resolve_run(args.run)
    if args.out:
        snapshot.save(args.out)
        print(f"wrote run snapshot to {args.out}")
    else:
        print(_json_dumps(snapshot.as_dict()))
    return 0


def _cmd_diff(args) -> int:
    from repro.telemetry.diff import diff_runs, resolve_run

    base = resolve_run(args.base)
    fresh = resolve_run(args.fresh)
    diff = diff_runs(base, fresh)
    if args.format == "json":
        text = _json_dumps(diff.as_dict())
    elif args.format == "markdown":
        text = diff.render_markdown()
    else:  # text
        text = diff.render_text()
    _write_or_print(text, args.out, f"{args.format} run diff")
    if args.min_attributed_share is not None:
        share = diff.attributed_share(args.attribute or "")
        if share < args.min_attributed_share:
            print(
                f"repro diff: {args.attribute!r} explains {share:.1f}% of the "
                f"downtime delta, below the required "
                f"{args.min_attributed_share:.1f}%"
            )
            return 1
    return 0


def _cmd_profile(args) -> int:
    from repro.telemetry.criticalpath import folded, profile_stacks
    from repro.telemetry.runs import run_seeded_migration

    tb = run_seeded_migration(seed=args.seed, vm=args.vm)
    text = folded(profile_stacks(tb.telemetry, tb.network))
    _write_or_print(text, args.out, "folded profile")
    return 0


def _cmd_inventory(_args) -> int:
    rows = [
        ("repro.sim", "virtual clock, cost model, VCPU scheduler", "—"),
        ("repro.crypto", "RC4/DES/AES/DH/RSA/HKDF, AE envelope", "§IV, §V-B"),
        ("repro.sgx", "EPC/EPCM, MEE, instruction set, attestation", "§II-A"),
        ("repro.sgx.sgx2", "EDMM: EAUG/EACCEPT/EMODPR/EMODPE", "§IV-B (v2 note)"),
        ("repro.sgx.proposed", "EPUTKEY/EMIGRATE/ESWPOUT/… extension ISA", "§VII-B"),
        ("repro.hypervisor", "EPT, VMCS, vEPC overcommit, QEMU pre-copy", "§VI-A"),
        ("repro.guestos", "scheduler (honest+malicious), SGX driver", "§IV-A, §VI-B"),
        ("repro.sdk", "builder, runtime, control thread, library, owner", "§III, §VI-C"),
        ("repro.migration", "orchestrator, agent, snapshots, VM migration", "§III-§VI"),
        ("repro.attacks", "consistency, fork, rollback, replay, tamper, crossmig", "§IV-A, §V-A, §VII-A"),
        ("repro.workloads", "nbench, crypto apps, bank, mail, auth, memcached", "§VIII"),
    ]
    width = max(len(r[0]) for r in rows)
    for module, what, section in rows:
        print(f"{module.ljust(width)}  {what}  [{section}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure Live Migration of SGX Enclaves on Untrusted Cloud (DSN'17) — reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="run the quickstart scenario").set_defaults(fn=_cmd_demo)
    attack = sub.add_parser("attack", help="run one of the paper's attacks")
    attack.add_argument(
        "name",
        choices=("consistency", "fork", "rollback", "replay", "tamper", "crossmig"),
    )
    attack.add_argument(
        "--seed",
        type=int,
        default=40,
        help="seed for the cross-migration matrix (ignored by other attacks)",
    )
    attack.set_defaults(fn=_cmd_attack)
    vm = sub.add_parser("vm", help="migrate a whole VM")
    vm.add_argument("--enclaves", type=int, default=4)
    vm.add_argument("--agent", action="store_true", help="use the §VI-D agent enclave")
    vm.add_argument("--seed", default="cli")
    vm.set_defaults(fn=_cmd_vm)
    faults = sub.add_parser("faults", help="migrate under an injected fault plan")
    faults.add_argument(
        "--plan",
        default="",
        help=(
            "comma-separated faults, e.g. "
            "'drop:kmigrate,corrupt:checkpoint-chunk:2,crash:target:restore,"
            "partition:20'"
        ),
    )
    faults.add_argument("--seed", type=int, default=7, help="fault plan RNG seed")
    faults.add_argument("--retries", type=int, default=5, help="protocol attempts")
    faults.add_argument(
        "--chunk-bytes", type=int, default=16 * 1024,
        help="checkpoint chunk size (0 = unchunked seed protocol)",
    )
    faults.add_argument(
        "--storage",
        action="store_true",
        help="seed the enclave with sealed storage so the handoff runs too",
    )
    faults.add_argument(
        "--json", action="store_true", help="emit one JSON report instead of prose"
    )
    faults.set_defaults(fn=_cmd_faults)
    recover = sub.add_parser(
        "recover", help="crash a migration party mid-protocol and recover it"
    )
    recover.add_argument(
        "--plan",
        default="crash-record:orchestrator:5",
        help=(
            "fault spec with at least one crash-record:PARTY:N entry "
            "(PARTY in source/target/orchestrator/agent)"
        ),
    )
    recover.add_argument("--seed", type=int, default=7, help="testbed / plan seed")
    recover.add_argument(
        "--storage",
        action="store_true",
        help="seed the enclave with sealed storage so the handoff runs too",
    )
    recover.add_argument(
        "--json", action="store_true", help="emit one JSON report instead of prose"
    )
    recover.set_defaults(fn=_cmd_recover)
    trace = sub.add_parser(
        "trace", help="run one seeded migration and export its span trace"
    )
    trace.add_argument("--seed", default=1, help="testbed seed")
    trace.add_argument(
        "--vm", action="store_true", help="trace a whole-VM migration instead"
    )
    trace.add_argument(
        "--format", choices=("chrome", "jsonl", "otlp", "report"), default="chrome",
        help=(
            "chrome trace_event JSON, JSONL dump, OTLP/JSON traces, or the "
            "phase-timeline report"
        ),
    )
    trace.add_argument("--out", default="", help="write to a file instead of stdout")
    trace.set_defaults(fn=_cmd_trace)
    metrics = sub.add_parser(
        "metrics", help="run one seeded migration and export its metrics"
    )
    metrics.add_argument("--seed", default=1, help="testbed seed")
    metrics.add_argument(
        "--vm", action="store_true", help="measure a whole-VM migration instead"
    )
    metrics.add_argument(
        "--format", choices=("prom", "json", "otlp"), default="prom",
        help="Prometheus text exposition, the JSON snapshot, or OTLP/JSON",
    )
    metrics.add_argument("--out", default="", help="write to a file instead of stdout")
    metrics.add_argument(
        "--require", action="append", default=[], metavar="NAME",
        help="exit non-zero unless this metric exists and is non-zero (repeatable)",
    )
    metrics.set_defaults(fn=_cmd_metrics)
    fleet = sub.add_parser(
        "fleet",
        help="run N seeded migrations against the fleet downtime budget",
    )
    fleet.add_argument(
        "action", nargs="?", choices=("run", "blame"), default="run",
        help="'run' prints the console snapshot; 'blame' runs the fleet "
        "and prints the ranked straggler contention-blame report "
        "(defaults --hosts to 4 when unset)",
    )
    fleet.add_argument("--n", type=int, default=16, help="number of migrations")
    fleet.add_argument(
        "--seeds", default="1",
        help="comma-separated base seeds, cycled across migrations",
    )
    fleet.add_argument(
        "--max-inflight", type=int, default=8, dest="max_inflight",
        help="concurrent admission slots on the fleet timeline",
    )
    fleet.add_argument(
        "--fault-every", type=int, default=0, dest="fault_every", metavar="K",
        help="inject the fault plan into every K-th migration (0 = never)",
    )
    fleet.add_argument(
        "--fault-plan", default="delay:checkpoint:1", dest="fault_plan",
        help="fault spec for the --fault-every cadence",
    )
    fleet.add_argument(
        "--hosts", type=int, default=0,
        help="per-host contention model: number of simulated hosts "
        "(0 = plain slot timeline, no contention)",
    )
    fleet.add_argument(
        "--epc-per-host", type=int, default=32, dest="epc_per_host",
        metavar="PAGES", help="EPC capacity per host in 4 KiB pages",
    )
    fleet.add_argument(
        "--bw-per-host", type=int, default=1024 * 1024, dest="bw_per_host",
        metavar="BYTES_PER_SEC", help="NIC bandwidth share per host",
    )
    fleet.add_argument(
        "--blame-factor", type=float, default=1.5, dest="blame_factor",
        help="straggler threshold: wall time above this multiple of the "
        "fleet median (blame action)",
    )
    fleet.add_argument(
        "--blame-out", default="", dest="blame_out",
        help="write the blame report to a file (blame action)",
    )
    fleet.add_argument(
        "--heatmap-out", default="", dest="heatmap_out",
        help="write the host-utilization heatmap to a file (needs --hosts)",
    )
    fleet.add_argument(
        "--watch", action="store_true",
        help="print live console frames as migrations complete "
        "(to stderr with --json)",
    )
    fleet.add_argument(
        "--frame-every", type=int, default=8, dest="frame_every",
        help="with --watch, emit a frame every this-many completions",
    )
    fleet.add_argument(
        "--console-out", default="", dest="console_out",
        help="write the final console snapshot to a file",
    )
    fleet.add_argument(
        "--otlp-out", default="", dest="otlp_out",
        help="directory for OTLP artifacts (fleet metrics + sample trace)",
    )
    fleet.add_argument(
        "--bench-dir", default="", dest="bench_dir",
        help="merge this run's series into BENCH_fleet.json here "
        "(default: $REPRO_BENCH_DIR)",
    )
    fleet.add_argument(
        "--json", action="store_true", help="print the full fleet report as JSON"
    )
    fleet.set_defaults(fn=_cmd_fleet)
    explain = sub.add_parser(
        "explain", help="run one seeded migration and print its critical path"
    )
    explain.add_argument("--seed", default=1, help="testbed seed")
    explain.add_argument(
        "--format", choices=("text", "json", "chrome", "dot"), default="text",
        help=(
            "ranked text report, JSON report, Chrome trace with overlays, "
            "or the causal DAG as Graphviz source"
        ),
    )
    explain.add_argument("--out", default="", help="write to a file instead of stdout")
    explain.add_argument(
        "--require-blame", action="append", default=[], metavar="NAME",
        dest="require_blame",
        help=(
            "exit non-zero unless NAME matches a blamed span/transfer or one "
            "of its span ancestors (substring match; repeatable)"
        ),
    )
    explain.set_defaults(fn=_cmd_explain)
    snapshot = sub.add_parser(
        "snapshot", help="run a migration (or load one) and save its run snapshot"
    )
    snapshot.add_argument(
        "run",
        help=(
            "a run spec ('seed=1', 'seed=1,vm', 'seed=1,journal-cost-ns=524000') "
            "or a path to an existing snapshot"
        ),
    )
    snapshot.add_argument("--out", default="", help="write to a file instead of stdout")
    snapshot.set_defaults(fn=_cmd_snapshot)
    diff = sub.add_parser(
        "diff", help="compare two runs and attribute the downtime delta"
    )
    diff.add_argument("base", help="baseline run: a run spec or a snapshot path")
    diff.add_argument("fresh", help="fresh run: a run spec or a snapshot path")
    diff.add_argument(
        "--format", choices=("text", "json", "markdown"), default="text",
        help="ranked text report, JSON report, or a markdown summary table",
    )
    diff.add_argument("--out", default="", help="write to a file instead of stdout")
    diff.add_argument(
        "--attribute", default="", metavar="NAME",
        help="blame unit (substring) for the --min-attributed-share gate",
    )
    diff.add_argument(
        "--min-attributed-share", type=float, default=None, metavar="PCT",
        help=(
            "exit non-zero unless --attribute explains at least PCT%% of the "
            "downtime delta"
        ),
    )
    diff.set_defaults(fn=_cmd_diff)
    profile = sub.add_parser(
        "profile", help="run one seeded migration and print its folded stacks"
    )
    profile.add_argument("--seed", default=1, help="testbed seed")
    profile.add_argument(
        "--vm", action="store_true", help="profile a whole-VM migration instead"
    )
    profile.add_argument("--out", default="", help="write to a file instead of stdout")
    profile.set_defaults(fn=_cmd_profile)
    sub.add_parser("inventory", help="print the system inventory").set_defaults(
        fn=_cmd_inventory
    )
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
