"""Command-line interface.

Installed as ``repro-march``::

    repro-march lists                 # fault list inventory
    repro-march known                 # published march tests
    repro-march coverage "March SL"   # coverage of a known test
    repro-march simulate "c(w0) U(r0,w1) D(r1,w0)" --fault-list 2
    repro-march generate --fault-list 1
    repro-march campaign --fault-lists 1 2 --workers 4 --sizes 3 4
    repro-march campaign --store q.sqlite --shard 1/3   # one shard
    repro-march campaign --store q.sqlite --resume      # missing cells
    repro-march store stats q.sqlite  # qualification store inventory
    repro-march store merge out.sqlite shard1.sqlite shard2.sqlite
    repro-march dictionary "March C-" --fault-list 2 --ambiguity
    repro-march diagnose "March C-" --inject "LF1:TFU->SF0" --distinguish
    repro-march fleet fleet.json --store q.sqlite --workers 4
    repro-march bist "March C-" --json netlist.json --verilog bist.v
    repro-march serve --port 8765 --store q.sqlite  # HTTP job API
    repro-march table1                # reproduce the paper's Table 1
    repro-march figure --which g0     # DOT source of Figure 2 / 4

The job subcommands -- ``campaign``, ``dictionary``, ``diagnose``,
``fleet`` and ``bist`` -- are each a :class:`repro.service.jobs.JobSpec`
plus a renderer of its result.  One context manager, :func:`_job`,
runs the spec through :class:`repro.service.jobs.JobRunner` (the
runner ``serve`` executes HTTP jobs with) and owns the store, the
error lines and Ctrl-C, so a job submitted over HTTP returns
byte-identical results -- and identical one-line error messages --
to the equivalent CLI invocation: ``campaign``/``fleet``
``--report-json`` and ``dictionary``/``bist`` ``--json`` write the
job's served bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import signal
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Tuple, Union

from repro.analysis.compare import (
    build_table1,
    coverage_matrix,
    render_table1,
)
from repro.analysis.dot import g0_dot, pgcf_example_graph
from repro.core.generator import MarchGenerator
from repro.faults.backgrounds import BACKGROUND_SETS, background_str
from repro.faults.dynamic import (
    dynamic_faults,
    dynamic_single_cell_faults,
    dynamic_two_cell_faults,
)
from repro.faults.lists import (
    fault_list_1,
    fault_list_2,
    fault_list_by_label,
    lf1_faults,
    lf2aa_faults,
    lf2av_faults,
    lf2va_faults,
    lf3_faults,
    simple_static_faults,
)
from repro.faults.operations import quoted
from repro.march.known import ALL_KNOWN, known_march
from repro.march.test import parse_march
from repro.march.wordize import wordize
from repro.service.jobs import (
    JobResult,
    JobRunner,
    JobSpec,
    fleet_document_text,
)
from repro.sim.backends import (
    BACKENDS,
    BITPAR_AUTO_MIN_PLACEMENTS,
    SPARSE_AUTO_MIN_SIZE,
    backend_names,
    check_backend,
)
from repro.sim.coverage import CoverageOracle
from repro.sim.placements import LF3_LAYOUTS
from repro.sim.supervisor import CampaignExecutionError
from repro.store import QualificationStore


def _fault_list(label: str):
    try:
        return fault_list_by_label(label)
    except ValueError as error:
        raise SystemExit(str(error))


def _cmd_lists(args: argparse.Namespace) -> int:
    rows = (
        ("1", "single/two/three-cell static linked faults", fault_list_1),
        ("2", "single-cell static linked faults", fault_list_2),
        ("lf1", "single-cell LFs", lf1_faults),
        ("lf2aa", "two-cell LFs, shared aggressor+victim", lf2aa_faults),
        ("lf2av", "two-cell FP1, single-cell masker", lf2av_faults),
        ("lf2va", "single-cell FP1, two-cell masker", lf2va_faults),
        ("lf3", "three-cell LFs (distinct aggressors)", lf3_faults),
        ("simple", "unlinked static FPs", simple_static_faults),
        ("dynamic", "two-operation dynamic FPs", dynamic_faults),
        ("dynamic1", "single-cell dynamic FPs", dynamic_single_cell_faults),
        ("dynamic2", "two-cell dynamic FPs", dynamic_two_cell_faults),
    )
    for label, description, factory in rows:
        print(f"{label:8s} {len(factory()):5d} faults  {description}")
    return 0


def _cmd_known(args: argparse.Namespace) -> int:
    for name in sorted(ALL_KNOWN):
        km = ALL_KNOWN[name]
        flag = " (reconstruction)" if km.reconstructed else ""
        print(f"{km.complexity:3d}n  {name}{flag}")
        print(f"      {km.test.notation()}")
        print(f"      source: {km.source}")
    return 0


def _word_kwargs(args: argparse.Namespace) -> dict:
    """The ``width``/``backgrounds`` keywords of a word-mode command.

    ``--backgrounds`` accepts either one named set (``standard``,
    ``marching``, ``solid``) or explicit lane patterns (``0101 0011``);
    validation happens in :func:`repro.faults.backgrounds.\
resolve_backgrounds` via the oracle constructors.
    """
    backgrounds = args.backgrounds
    if backgrounds is not None and len(backgrounds) == 1 \
            and backgrounds[0] in BACKGROUND_SETS:
        backgrounds = backgrounds[0]
    return {"width": args.width, "backgrounds": backgrounds}


def _make_oracle(args: argparse.Namespace, faults) -> CoverageOracle:
    """The coverage oracle of a word-aware subcommand."""
    try:
        return CoverageOracle(
            faults, lf3_layout=args.lf3_layout, backend=args.backend,
            **_word_kwargs(args))
    except ValueError as error:
        raise SystemExit(f"invalid word mode: {error}")


def _report_outcome(report, args: argparse.Namespace) -> int:
    """Print a report summary (+ verbose escapes); exit code."""
    print(report.summary())
    if not report.complete and args.verbose:
        for record in report.escapes:
            print("  escape:", record.fault.name, f"({record})")
    return 0 if report.complete else 1


def _describe_word_mode(oracle) -> None:
    if oracle.backgrounds is not None:
        patterns = ", ".join(
            background_str(bg) for bg in oracle.backgrounds)
        print(f"word mode: width {oracle.width}, "
              f"backgrounds [{patterns}]")


def _known(name: str):
    """The known march called *name*; exit with one line if none is."""
    try:
        return known_march(name)
    except KeyError as error:
        raise SystemExit(error.args[0])


def _checked_march(notation: str, name: str):
    """Parse and consistency-check *notation*; exit with one line if
    it is not a fault-free consistent march."""
    try:
        test = parse_march(notation, name=name)
        test.check_consistency()
    except ValueError as error:
        raise SystemExit(f"invalid march {quoted(notation)}: {error}")
    return test


def _cmd_coverage(args: argparse.Namespace) -> int:
    km = _known(args.test)
    oracle = _make_oracle(args, _fault_list(args.fault_list))
    _describe_word_mode(oracle)
    return _report_outcome(oracle.evaluate(km.test), args)


def _cmd_simulate(args: argparse.Namespace) -> int:
    test = _checked_march(args.notation, "cli march")
    oracle = _make_oracle(args, _fault_list(args.fault_list))
    if oracle.backgrounds is not None:
        wordized = wordize(test, oracle.width, oracle.backgrounds)
        print(wordized.describe())
        for run in wordized.runs:
            print(" ", run.notation())
    else:
        print(test.describe())
    return _report_outcome(oracle.evaluate(test), args)


def _parse_shard(text: Optional[str]):
    """Parse the ``--shard i/N`` spec into an ``(index, count)`` pair."""
    if text is None:
        return None
    try:
        index_text, count_text = text.split("/", 1)
        return int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(
            f"invalid shard spec {text!r}; expected i/N, e.g. 2/3")


def _resume_command(args: argparse.Namespace) -> str:
    """The exact command that resumes this interrupted invocation."""
    argv = list(getattr(args, "_argv", None) or [])
    if "--resume" not in argv:
        argv.append("--resume")
    return shlex.join(["repro-march"] + argv)


def _write(path: Optional[str], data: Union[str, bytes], what: str) -> None:
    """Write the artifact *data* to *path*, when one was given."""
    if path:
        with open(path, "wb" if isinstance(data, bytes) else "w") as out:
            out.write(data)
        print(f"{what} written to {path}")


def _open_store(path: str) -> QualificationStore:
    """Open (or create) the store at *path*; one-line error."""
    try:
        return QualificationStore(path)
    except ValueError as error:
        raise SystemExit(str(error))


@contextmanager
def _store_at(path: Optional[str]) -> Iterator[Optional[QualificationStore]]:
    """The ``--store`` database, if any, closed on every exit.

    Closing checkpoints the WAL into the main file, so the store is
    one self-contained artifact.
    """
    store = None if path is None else _open_store(path)
    try:
        yield store
    finally:
        if store is not None:
            store.close()


def _job_spec(kind: str, args: argparse.Namespace,
              **fields) -> JobSpec:
    """Build the validated :class:`JobSpec` of a subcommand.

    The spec raises the exact one-line ``ValueError`` texts the CLI
    has always printed (and the service returns as HTTP 400s); here
    they just become the exit message.
    """
    try:
        return JobSpec(
            kind=kind,
            backend=args.backend,
            workers=args.workers,
            timeout=args.timeout,
            chaos=args.chaos,
            **fields,
        )
    except ValueError as error:
        raise SystemExit(str(error))


def _single_spec(kind: str, args: argparse.Namespace) -> JobSpec:
    """The spec of a one-test, one-geometry job (dictionary, bist)."""
    return _job_spec(
        kind, args,
        tests=(args.test,),
        fault_lists=(args.fault_list,),
        memory_sizes=(args.size,),
        lf3_layouts=(args.lf3_layout,),
        **_word_kwargs(args),
    )


@contextmanager
def _job(
    spec: JobSpec, args: argparse.Namespace,
) -> Iterator[Tuple[JobResult, Optional[QualificationStore]]]:
    """Run *spec* against ``--store``; yield ``(job result, store)``.

    The one execution path of the job subcommands.  The store stays
    open for the ``with`` body and closes on every exit.  A run-time
    ``ValueError`` exits with the spec's ``invalid <kind>:`` line and
    a :class:`CampaignExecutionError` with its own; Ctrl-C, in the
    run or in the body, exits 130 after naming the store that holds
    the checkpointed work and the command that resumes it.
    """
    if getattr(args, "resume", False):
        if not args.store:
            raise SystemExit("--resume requires --store PATH")
        if not os.path.exists(args.store):
            raise SystemExit(
                f"--resume: store {args.store!r} does not exist (an "
                f"interrupted run would have left one behind)")
    try:
        with _store_at(args.store) as store:
            try:
                job = JobRunner(store=store).run(spec)
            except ValueError as error:
                raise SystemExit(str(spec.error(error)))
            except CampaignExecutionError as error:
                raise SystemExit(str(error))
            yield job, store
    except KeyboardInterrupt:
        print()
        if args.store is None:
            print("interrupted: no --store attached, progress was "
                  "not persisted")
        else:
            print(f"interrupted: completed work is checkpointed in "
                  f"{args.store!r}")
            # Only campaign and fleet take --resume; the others
            # resume from the store by running the same command.
            command = (_resume_command(args) if hasattr(args, "resume")
                       else shlex.join(["repro-march", *args._argv]))
            print(f"resume with: {command}")
        raise SystemExit(130)


def _cmd_campaign(args: argparse.Namespace) -> int:
    # Eager selection checks keep the historical messages: --tests
    # must be *known* names (never notation), --notation must parse.
    for name in args.tests or ():
        _known(name)
    for notation in args.notation or ():
        _checked_march(notation, notation)
    tests = list(args.tests or ()) + list(args.notation or ())
    if not tests:
        # No explicit selection: qualify every known march test.
        tests = list(ALL_KNOWN)
    spec = _job_spec(
        "campaign", args,
        tests=tuple(tests),
        fault_lists=tuple(args.fault_lists),
        memory_sizes=tuple(args.sizes),
        lf3_layouts=tuple(args.lf3_layouts),
        shard=_parse_shard(args.shard),
        **_word_kwargs(args),
    )
    with _job(spec, args) as (job, _):
        result = job.result
        print(result.render())
        print(job.summary)
        if args.verbose:
            for entry in result.entries:
                for fault in entry.report.escaped_faults:
                    print(f"  escape [{entry.job.describe()}]: "
                          f"{fault.name}")
        _write(args.json, result.to_json() + "\n", "campaign report")
        _write(args.report_json, job.report_bytes, "deterministic report")
    return 0 if job.ok else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.march.element import parse_address_order

    faults = _fault_list(args.fault_list)
    allowed_orders = None
    if args.orders:
        allowed_orders = tuple(
            parse_address_order(marker) for marker in args.orders)
    with _store_at(args.store) as store:
        try:
            generator = MarchGenerator(
                faults,
                name=args.name,
                lf3_layout=args.lf3_layout,
                use_walker=not args.no_walker,
                use_shapes=not args.no_shapes,
                prune=not args.no_prune,
                allowed_orders=allowed_orders,
                workers=args.workers,
                backend=args.backend,
                store=store,
                **_word_kwargs(args),
            )
        except ValueError as error:
            raise SystemExit(f"invalid generator configuration: {error}")
        result = generator.generate()
    print(result.describe())
    if args.verbose:
        print("unpruned:", result.unpruned.describe())
        for step in result.trace:
            print("  ", step)
    return 0 if result.complete else 1


def _cmd_dictionary(args: argparse.Namespace) -> int:
    from repro.analysis.diagnosis import (
        render_ambiguity_table,
        render_dictionary_summary,
    )
    from repro.diagnosis import ambiguity_report

    with _job(_single_spec("dictionary", args), args) as (job, _):
        dictionary = job.result
        report = ambiguity_report(dictionary)
        print(render_dictionary_summary(dictionary, report))
        if args.ambiguity:
            print(render_ambiguity_table(report, limit=args.limit))
        _write(args.json, job.report_bytes, "dictionary")
        _write(args.ambiguity_json, report.to_json() + "\n",
               "ambiguity report")
    return 0


def _observed_signature(args: argparse.Namespace, dictionary):
    """The signature ``diagnose`` looks up: parsed or injected."""
    from repro.diagnosis import parse_signature
    from repro.sim.coverage import fault_name

    if args.signature is not None:
        try:
            return parse_signature(args.signature)
        except ValueError as error:
            raise SystemExit(f"invalid --signature: {error}")
    names = [fault_name(f) for f in dictionary.faults]
    try:
        fault_index = names.index(args.inject)
    except ValueError:
        raise SystemExit(
            f"fault {args.inject!r} is not in fault list "
            f"{args.fault_list!r}")
    try:
        return dictionary.signature_of(fault_index, args.placement)
    except KeyError:
        raise SystemExit(
            f"fault {args.inject!r} has no placement "
            f"{args.placement}")


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.diagnosis import (
        DistinguishingGenerator,
        diagnose,
        signature_str,
    )

    with _job(_single_spec("dictionary", args), args) as (job, store):
        dictionary = job.result
        signature = _observed_signature(args, dictionary)
        cls = diagnose(dictionary, signature)
        document = {
            "signature": signature_str(signature),
            "matched": cls is not None,
        }
        if cls is not None:
            document["class_size"] = cls.size
            document["faults"] = sorted(cls.fault_names)
        _write(args.json, json.dumps(
            document, sort_keys=True, separators=(",", ":")) + "\n",
            "diagnosis")
        if cls is None:
            print(f"signature [{signature_str(signature)}] matches "
                  f"no modelled fault placement in this dictionary")
            return 1
        print(f"observed [{signature_str(signature)}]")
        print(f"ambiguity class: {cls.size} placement(s) of "
              f"{len(cls.fault_names)} fault(s)")
        for entry in cls.entries:
            print(f"  {entry.fault.name}  ({entry.instance.name})")
        if cls.size > 1 and args.distinguish:
            try:
                generator = DistinguishingGenerator(
                    dictionary,
                    max_suffix=args.max_suffix,
                    backend=args.backend,
                    store=store,
                    focus=cls,
                )
            except ValueError as error:
                raise SystemExit(f"invalid distinguish run: {error}")
            result = generator.distinguish()
            suffix = " ".join(el.notation() for el in result.suffix)
            # What the suffix did to the class the user asked about:
            # its members regrouped by their extended signatures.
            groups = len({
                result.dictionary.signature_of(
                    entry.fault_index, entry.instance_index)
                for entry in cls.entries
            })
            if suffix and groups > 1:
                print(f"suggested distinguishing march: "
                      f"{result.test.notation()}")
                print(f"  (suffix {suffix} appended to the base "
                      f"march)")
                print(f"  observed class of {cls.size} -> "
                      f"{groups} distinguishable group(s); "
                      f"resolution "
                      f"{result.before.resolution:.3f} -> "
                      f"{result.after.resolution:.3f}")
            elif suffix:
                print(f"suffix {suffix} refines other classes "
                      f"(resolution {result.before.resolution:.3f} "
                      f"-> {result.after.resolution:.3f}) but could "
                      f"not split the observed class: its members "
                      f"are equivalent under every candidate "
                      f"extension")
            else:
                print("no distinguishing suffix found: the class "
                      "members are equivalent under every candidate "
                      "extension")
            if args.verbose:
                for step in result.trace:
                    print("  ", step)
    return 0


def _cmd_bist(args: argparse.Namespace) -> int:
    # BIST jobs always verify: the netlist the CLI (and the service)
    # hands out is proven trace-equivalent to the direct march run.
    with _job(_single_spec("bist", args), args) as (job, _):
        program, verification = job.result
        print(program.describe())
        print(f"netlist sha256: {program.netlist_sha256()}")
        print(job.summary)
        if args.verbose and verification.mismatches:
            for mismatch in verification.mismatches:
                print(f"  mismatch: {mismatch}")
        _write(args.json, job.report_bytes, "bist netlist")
        _write(args.verilog, program.to_verilog() + "\n", "verilog")
    return 0 if job.ok else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.diagnosis import load_fleet_spec

    try:
        fleet_spec = load_fleet_spec(args.spec)
    except OSError as error:
        raise SystemExit(f"cannot read fleet spec: {error}")
    except ValueError as error:
        raise SystemExit(str(error))
    march = args.test or fleet_spec.march
    if march is None:
        raise SystemExit(
            "no march test selected: pass --test or set 'march' in "
            "the fleet spec")
    spec = _job_spec(
        "fleet", args,
        tests=(march,),
        fault_lists=(
            args.fault_list or fleet_spec.fault_list or "2",),
        fleet=fleet_document_text(fleet_spec),
    )
    with _job(spec, args) as (job, _):
        report = job.result
        print(report.render())
        if args.verbose:
            for row in report.report_dict()["geometries"]:
                backgrounds = row["backgrounds"]
                word = "" if backgrounds is None else (
                    f" x{row['width']} [{', '.join(backgrounds)}]")
                print(f"  geometry size {row['memory_size']}{word} "
                      f"({row['lf3_layout']}): "
                      f"{len(row['instances'])} instance(s), "
                      f"{row['classes']} class(es), "
                      f"resolution {row['resolution']:.3f}")
        _write(args.json, json.dumps(report.to_dict(), indent=2) + "\n",
               "fleet report")
        _write(args.report_json, job.report_bytes,
               "deterministic fleet report")
    return 0 if job.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import start_service

    try:
        handle = start_service(
            host=args.host,
            port=args.port,
            store_path=args.store,
            job_workers=args.job_workers,
            queue_size=args.queue_size,
            rate=args.rate,
            burst=args.burst,
            sim_workers=args.workers,
            backend=args.backend,
            timeout=args.timeout,
            chaos=args.chaos,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot start service: {error}")
    # However serve was launched -- a backgrounded shell job inherits
    # SIGINT ignored -- SIGINT and SIGTERM both reach the drain below.
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)
    try:
        print(f"serving qualification jobs on {handle.url}")
        print(f"  POST {handle.url}/jobs "
              f"(campaign | dictionary | fleet | bist specs)")
        print(f"  GET  {handle.url}/jobs/{{id}}  "
              f"/jobs/{{id}}/result  /healthz  /store/stats")
        store_note = args.store or "(none: in-flight coalescing only)"
        print(f"  store: {store_note}  job workers: {args.job_workers}  "
              f"sim workers/job: {args.workers}")
        _write(args.json, json.dumps({
            "url": handle.url,
            "host": handle.host,
            "port": handle.port,
            "pid": os.getpid(),
        }) + "\n", "service info")
        while handle.thread.is_alive():
            handle.thread.join(1.0)
    except KeyboardInterrupt:
        print()
        print("shutting down (draining running jobs)")
        handle.stop()
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = build_table1(fault_list_1(), fault_list_2())
    print(render_table1(rows))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    tests = [km.test for km in ALL_KNOWN.values()]
    lists = {"FL#1": fault_list_1(), "FL#2": fault_list_2()}
    print(coverage_matrix(tests, lists, lf3_layout=args.lf3_layout).render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report

    text = build_report(include_generation=args.generate)
    if args.output:
        _write(args.output, text, "report")
    else:
        print(text)
    return 0


def _open_existing_store(path: str) -> QualificationStore:
    if not os.path.exists(path):
        raise SystemExit(f"qualification store {path!r} does not exist")
    return _open_store(path)


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _open_existing_store(args.store)
    stats = store.stats()
    store.close()
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    print(f"store {stats['path']}")
    print(f"  rows: {stats['rows']} "
          f"({stats['current_rows']} current, "
          f"{stats['stale_rows']} stale)")
    print(f"  payload bytes: {stats['payload_bytes']}")
    print(f"  schema version: {stats['schema_version']}, "
          f"semantics version: {stats['semantics_version']}")
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    # Open every source before creating/mutating the destination: a
    # typo in the third path must not leave a half-merged destination
    # behind (atomic-or-no-op).
    sources = [_open_existing_store(path) for path in args.sources]
    destination = _open_store(args.destination)
    total = 0
    for path, source in zip(args.sources, sources):
        added = destination.merge(source)
        print(f"merged {path}: +{added} row(s)")
        total += added
        source.close()
    print(f"{args.destination}: {len(destination)} row(s) "
          f"({total} added)")
    destination.close()  # checkpoint WAL into the main file
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _open_existing_store(args.store)
    reclaimed = store.gc()
    print(f"reclaimed {reclaimed} stale row(s); "
          f"{len(store)} row(s) remain")
    store.close()
    return 0


def _cmd_store_export(args: argparse.Namespace) -> int:
    store = _open_existing_store(args.store)
    text = json.dumps(store.export(), indent=2)
    store.close()
    if args.output:
        _write(args.output, text + "\n", "store export")
    else:
        print(text)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.which == "g0":
        print(g0_dot(cells=args.cells))
    elif args.which == "pgcf":
        graph, _ = pgcf_example_graph()
        print(graph.to_dot(name="PGCF"))
    else:
        raise SystemExit(f"unknown figure {args.which!r}")
    return 0


def _add_word_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--width``/``--backgrounds`` word-mode flags."""
    parser.add_argument(
        "--width", type=int, default=1, metavar="W",
        help="bits per word (default 1 = the paper's bit-oriented "
             "model); W > 1 simulates a word-oriented memory -- "
             "sizes count words, placements include intra-word lane "
             "layouts and the march runs once per data background")
    parser.add_argument(
        "--backgrounds", nargs="+", metavar="BG",
        help="word-mode data backgrounds: a named set (standard, "
             "marching, solid) or explicit lane patterns such as "
             "'0101 0011' (lane 0 first); default: the standard "
             "ceil(log2 W)+1 set")


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--backend`` simulation-kernel selector.

    Choices and help text come from the kernel table
    (:data:`repro.sim.backends.BACKENDS`).  Validation happens
    centrally in :func:`main` (a one-line exit-1 message) rather than
    through argparse ``choices`` -- deep inside a campaign worker
    fan-out is too late to learn the name was wrong.
    """
    lines = "; ".join(
        f"'{name}': {text}" for name, text in BACKENDS.items())
    parser.add_argument(
        "--backend", default="auto", metavar="NAME",
        help=f"simulation kernel, one of {', '.join(backend_names())} "
             f"-- {lines}; 'auto' (default) picks dense below "
             f"{SPARSE_AUTO_MIN_SIZE} cells (or words), bitpar for "
             f"workloads of at least {BITPAR_AUTO_MIN_PLACEMENTS} "
             "placement contexts and sparse otherwise; reports are "
             "byte-identical across backends")


def _shared_options() -> argparse.ArgumentParser:
    """The parent parser of every job-shaped subcommand.

    ``campaign``, ``dictionary``, ``diagnose``, ``fleet``, ``bist``
    and ``serve`` all execute through the same :class:`JobSpec` /
    :class:`JobRunner` pair, so they inherit one spelling of the
    execution flags from this parent instead of re-declaring them
    per subcommand; a parity test pins the shared set.
    """
    shared = argparse.ArgumentParser(add_help=False)
    _add_backend_argument(shared)
    shared.add_argument(
        "--store", metavar="PATH",
        help="content-addressed qualification store (SQLite, created "
             "on demand): completed simulation work is memoized, so "
             "identical jobs -- CLI or service, any surface -- skip "
             "simulation and return byte-identical results")
    shared.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="simulation worker processes (default 1 = serial; "
             "results are byte-identical for any worker count)")
    shared.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="wall-clock budget per work chunk: a chunk past its "
             "budget is retried on a fresh worker pool (hung-worker "
             "recovery; default: unbounded)")
    shared.add_argument(
        "--chaos", metavar="SPEC",
        help="deterministic fault injection for testing the "
             "supervisor, e.g. 'crash=0.3,poison=0.2,seed=7' (rates "
             "for crash/hang/slow/poison/lock, plus seed, attempts, "
             "slow_seconds, hang_seconds); results stay "
             "byte-identical to an undisturbed run")
    shared.add_argument(
        "--json", metavar="PATH",
        help="also write the subcommand's JSON artifact to PATH "
             "(campaign/fleet report, dictionary, diagnosis, bist "
             "netlist, or the serve endpoint info)")
    return shared


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-march`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-march",
        description=(
            "Automatic march test generation for static linked SRAM "
            "faults (Benso et al., DATE 2006 reproduction)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = _shared_options()

    sub.add_parser("lists", help="fault list inventory") \
        .set_defaults(func=_cmd_lists)
    sub.add_parser("known", help="published march tests") \
        .set_defaults(func=_cmd_known)

    coverage = sub.add_parser(
        "coverage", help="coverage of a known march test")
    coverage.add_argument("test", help='e.g. "March SL"')
    coverage.add_argument("--fault-list", default="1")
    coverage.add_argument("--lf3-layout", default="straddle",
                          choices=LF3_LAYOUTS)
    _add_backend_argument(coverage)
    _add_word_arguments(coverage)
    coverage.add_argument("--verbose", action="store_true")
    coverage.set_defaults(func=_cmd_coverage)

    simulate = sub.add_parser(
        "simulate", help="fault-simulate a march test given in notation")
    simulate.add_argument(
        "notation", help='e.g. "c(w0) U(r0,w1) D(r1,w0)"')
    simulate.add_argument("--fault-list", default="1")
    simulate.add_argument("--lf3-layout", default="straddle",
                          choices=LF3_LAYOUTS)
    _add_backend_argument(simulate)
    _add_word_arguments(simulate)
    simulate.add_argument("--verbose", action="store_true")
    simulate.set_defaults(func=_cmd_simulate)

    generate = sub.add_parser(
        "generate", help="generate a march test for a fault list")
    generate.add_argument("--fault-list", default="1")
    generate.add_argument("--name", default="generated march")
    generate.add_argument("--lf3-layout", default="straddle",
                          choices=LF3_LAYOUTS)
    generate.add_argument("--no-walker", action="store_true",
                          help="disable pattern-graph walk proposals")
    generate.add_argument("--no-shapes", action="store_true",
                          help="disable the canonical shape grammar")
    generate.add_argument("--no-prune", action="store_true",
                          help="skip redundancy pruning")
    generate.add_argument(
        "--orders", nargs="+", metavar="ORDER",
        help="restrict address orders (u/d/c), e.g. --orders u for an "
             "all-ascending test (the paper's Section 7 constraint)")
    generate.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="processes for the final qualification step (default 1; "
             "N>1 fans the fault list out over a process pool with "
             "results identical to the serial run)")
    generate.add_argument(
        "--store", metavar="PATH",
        help="content-addressed qualification store: every committed "
             "march prefix and the final qualification are recorded; "
             "a repeated generation replays only the final "
             "qualification (probing and pruning simulate again)")
    _add_backend_argument(generate)
    _add_word_arguments(generate)
    generate.add_argument("--verbose", action="store_true")
    generate.set_defaults(func=_cmd_generate)

    campaign = sub.add_parser(
        "campaign", parents=[shared],
        help="batched coverage campaign: many tests x many fault "
             "lists x many memory geometries, optionally in parallel",
        description=(
            "Qualify many march tests against many fault lists and "
            "memory geometries in one batched campaign.  Work is "
            "chunked by fault and fanned out over --workers "
            "processes; results are deterministic and identical to "
            "the serial oracle for any worker count."))
    campaign.add_argument(
        "--tests", nargs="+", metavar="NAME",
        help='known march tests to qualify, e.g. --tests "March SL" '
             '"March ABL1" (default when neither --tests nor '
             '--notation is given: all known tests)')
    campaign.add_argument(
        "--notation", nargs="+", metavar="MARCH",
        help='march tests in notation, e.g. "c(w0) c(r0)"; may be '
             'combined with --tests or used alone')
    campaign.add_argument(
        "--fault-lists", nargs="+", default=["1"], metavar="LIST",
        help="fault list labels to qualify against (default: 1)")
    campaign.add_argument(
        "--sizes", nargs="+", type=int, default=[3], metavar="N",
        help="simulated memory sizes to sweep (default: 3)")
    campaign.add_argument(
        "--lf3-layouts", nargs="+", default=["straddle"],
        choices=LF3_LAYOUTS,
        help="three-cell placement policies to sweep")
    campaign.add_argument(
        "--report-json", metavar="PATH",
        help="also write the deterministic (timing-free) report as "
             "JSON -- byte-identical across worker counts, backends, "
             "store hits and sharded-then-merged runs")
    campaign.add_argument(
        "--shard", metavar="I/N",
        help="run only this deterministic shard of the job list "
             "(e.g. 2/3); the N shards are disjoint and cover every "
             "job, so per-shard stores merged via 'store merge' "
             "resume into the full campaign")
    campaign.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted or sharded campaign: requires "
             "--store and re-runs only the cells missing from it "
             "(the final report is byte-identical to an "
             "uninterrupted run)")
    _add_word_arguments(campaign)
    campaign.add_argument("--verbose", action="store_true")
    campaign.set_defaults(func=_cmd_campaign)

    def add_diagnosis_arguments(parser: argparse.ArgumentParser) -> None:
        """The flags `dictionary` and `diagnose` share."""
        parser.add_argument(
            "test",
            help='base march test: a known name ("March C-") or raw '
                 'notation ("c(w0) U(r0,w1) ...")')
        parser.add_argument("--fault-list", default="2")
        parser.add_argument(
            "--size", type=int, default=3, metavar="N",
            help="simulated memory size (words in word mode; "
                 "default 3)")
        parser.add_argument("--lf3-layout", default="straddle",
                            choices=LF3_LAYOUTS)
        _add_word_arguments(parser)
        parser.add_argument("--verbose", action="store_true")

    dictionary = sub.add_parser(
        "dictionary", parents=[shared],
        help="build the fault dictionary (detection signatures) of a "
             "march test",
        description=(
            "Build the fault dictionary of one march test over one "
            "fault list: for every fault placement, the ordered "
            "tuple of first detection sites across the test's "
            "canonical run grid.  Placements with identical "
            "signatures form ambiguity classes -- what a diagnosis "
            "can resolve an observed failure pattern to."))
    add_diagnosis_arguments(dictionary)
    dictionary.add_argument(
        "--ambiguity", action="store_true",
        help="also print the ambiguity-class table")
    dictionary.add_argument(
        "--limit", type=int, metavar="N",
        help="show only the N largest ambiguity classes")
    dictionary.add_argument(
        "--ambiguity-json", metavar="PATH",
        help="write the ambiguity report as JSON")
    dictionary.set_defaults(func=_cmd_dictionary)

    diagnose = sub.add_parser(
        "diagnose", parents=[shared],
        help="resolve an observed failure signature to its ambiguity "
             "class",
        description=(
            "Look an observed signature up in the fault dictionary "
            "and report the ambiguity class it resolves to.  The "
            "signature is given either explicitly (--signature "
            "'e1o0c2;-;e1o0c2;-': per canonical run, the first "
            "failing (element, operation, cell) or '-' for a clean "
            "run) or by injecting a modelled fault (--inject NAME) "
            "and reading its simulated signature back.  With "
            "--distinguish, an ambiguous class additionally gets an "
            "adaptive distinguishing march: the base march extended "
            "by a suffix that splits the class for a second silicon "
            "run."))
    add_diagnosis_arguments(diagnose)
    observed = diagnose.add_mutually_exclusive_group(required=True)
    observed.add_argument(
        "--signature", metavar="SIG",
        help="observed signature, e.g. 'e1o0c2;-;e1o0c2;-' "
             "(one token per canonical run)")
    observed.add_argument(
        "--inject", metavar="FAULT",
        help="simulate this modelled fault's signature and diagnose "
             "it (a round-trip self-test)")
    diagnose.add_argument(
        "--placement", type=int, default=0, metavar="I",
        help="canonical placement index for --inject (default 0)")
    diagnose.add_argument(
        "--distinguish", action="store_true",
        help="when the class is ambiguous, generate a distinguishing "
             "march that splits it")
    diagnose.add_argument(
        "--max-suffix", type=int, default=8, metavar="N",
        help="bound on distinguishing-suffix elements (default 8)")
    diagnose.set_defaults(func=_cmd_diagnose)

    fleet = sub.add_parser(
        "fleet", parents=[shared],
        help="diagnose a fleet of heterogeneous memory instances "
             "under one shared march schedule",
        description=(
            "Load a fleet spec (JSON, or TOML on Python >= 3.11) "
            "declaring many memory instances of mixed sizes, widths "
            "and lf3 layouts, build the distinct per-geometry fault "
            "dictionaries in one batched, store-backed, "
            "resumable pass, and resolve every failing "
            "instance's signature to its ambiguity class.  The "
            "deterministic report (--report-json) is byte-identical "
            "across worker counts, backends and cold/warm stores; "
            "exit status 0 means every failing instance resolved to "
            "a class containing its injected fault."))
    fleet.add_argument(
        "spec",
        help="fleet spec path; see examples/fleet_demo.json and "
             "DESIGN_fleet.md for the format")
    fleet.add_argument(
        "--test", metavar="MARCH",
        help='march test: a known name ("March C-") or notation; '
             "default: the spec's 'march' entry")
    fleet.add_argument(
        "--fault-list", metavar="LIST",
        help="fault list label (default: the spec's 'fault_list' "
             "entry, then '2')")
    fleet.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted fleet run: requires --store and "
             "re-simulates only the signature rows missing from it")
    fleet.add_argument(
        "--report-json", metavar="PATH",
        help="write the deterministic fleet report as JSON -- "
             "byte-identical across worker counts, backends and "
             "store states")
    fleet.add_argument("--verbose", action="store_true")
    fleet.set_defaults(func=_cmd_fleet)

    bist = sub.add_parser(
        "bist", parents=[shared],
        help="compile a march test into a memory-BIST engine "
             "(verified JSON netlist, optional Verilog)",
        description=(
            "Compile a march test -- a known name, raw notation, or "
            "a generated distinguishing march -- into a BIST engine "
            "description: FSM state table, up/down address-generator "
            "spec, data-background generator and comparator.  The "
            "compiled program is always verified before anything is "
            "written: re-simulating it through the engine must "
            "reproduce the direct march run's operation grid, "
            "detection sites and report bytes over the given fault "
            "list and geometry (exit 1 on any divergence).  --json "
            "writes the deterministic netlist (byte-identical across "
            "runs, backends and machines; the same bytes the service "
            "serves for a bist job), --verilog the synthesizable "
            "module."))
    bist.add_argument(
        "test",
        help='march test to compile: a known name ("March C-") or '
             'raw notation ("c(w0) U(r0,w1) ...")')
    bist.add_argument(
        "--fault-list", default="2",
        help="fault list to verify trace equivalence over "
             "(default: 2)")
    bist.add_argument(
        "--size", type=int, default=3, metavar="N",
        help="verification memory size (words in word mode; "
             "default 3)")
    bist.add_argument("--lf3-layout", default="straddle",
                      choices=LF3_LAYOUTS)
    _add_word_arguments(bist)
    bist.add_argument(
        "--verilog", metavar="PATH",
        help="write the synthesizable Verilog module")
    bist.add_argument("--verbose", action="store_true")
    bist.set_defaults(func=_cmd_bist)

    serve = sub.add_parser(
        "serve", parents=[shared],
        help="serve qualification jobs over HTTP (campaign, "
             "dictionary, fleet and bist specs as async jobs)",
        description=(
            "Start the qualification service: a dependency-free "
            "HTTP API that accepts campaign, dictionary, fleet and "
            "bist jobs as JSON (POST /jobs), executes them through the "
            "same JobRunner as the CLI subcommands, and coalesces "
            "concurrent identical submissions -- keyed by the "
            "content-addressed job key, so jobs differing only in "
            "backend/workers/timeout/chaos run once.  Results are "
            "byte-identical to the equivalent CLI invocation; "
            "invalid specs return the CLI's exact one-line error as "
            "an HTTP 400."))
    serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8765, metavar="PORT",
        help="TCP port (default 8765; 0 binds an ephemeral port, "
             "printed on startup and recorded by --json)")
    serve.add_argument(
        "--job-workers", type=int, default=2, metavar="N",
        help="concurrent job-executor threads (default 2); each job "
             "additionally fans simulation out over at most "
             "--workers processes")
    serve.add_argument(
        "--queue-size", type=int, default=64, metavar="N",
        help="bounded job-queue depth; a full queue answers 503 "
             "(default 64)")
    serve.add_argument(
        "--rate", type=float, default=20.0, metavar="R",
        help="per-client token-bucket refill rate in requests/s; an "
             "empty bucket answers 429 (default 20)")
    serve.add_argument(
        "--burst", type=int, default=40, metavar="B",
        help="per-client token-bucket capacity (default 40)")
    serve.set_defaults(func=_cmd_serve)

    store = sub.add_parser(
        "store",
        help="inspect and maintain content-addressed qualification "
             "stores",
        description=(
            "Maintenance commands for the SQLite qualification store "
            "used by campaign/generate --store: inventory (stats), "
            "shard fusion (merge), stale-version cleanup (gc) and a "
            "JSON dump (export)."))
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_stats = store_sub.add_parser(
        "stats", help="row counts, version stamps and payload size")
    store_stats.add_argument("store", help="store database path")
    store_stats.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON")
    store_stats.set_defaults(func=_cmd_store_stats)

    store_merge = store_sub.add_parser(
        "merge",
        help="union one or more stores into a destination store")
    store_merge.add_argument(
        "destination", help="destination store (created if missing)")
    store_merge.add_argument(
        "sources", nargs="+", help="source store(s) to merge in")
    store_merge.set_defaults(func=_cmd_store_merge)

    store_gc = store_sub.add_parser(
        "gc", help="reclaim rows stamped with stale schema/semantics "
                   "versions")
    store_gc.add_argument("store", help="store database path")
    store_gc.set_defaults(func=_cmd_store_gc)

    store_export = store_sub.add_parser(
        "export", help="dump the store as JSON (artifact-friendly)")
    store_export.add_argument("store", help="store database path")
    store_export.add_argument(
        "--output", metavar="PATH",
        help="write to a file instead of stdout")
    store_export.set_defaults(func=_cmd_store_export)

    sub.add_parser("table1", help="reproduce the paper's Table 1") \
        .set_defaults(func=_cmd_table1)

    matrix = sub.add_parser(
        "matrix", help="coverage matrix of all known tests")
    matrix.add_argument("--lf3-layout", default="straddle",
                        choices=LF3_LAYOUTS)
    matrix.set_defaults(func=_cmd_matrix)

    report = sub.add_parser(
        "report", help="emit a Markdown reproduction report")
    report.add_argument("--output", help="write to a file instead of stdout")
    report.add_argument(
        "--generate", action="store_true",
        help="also regenerate the Table 1 rows live (slow)")
    report.set_defaults(func=_cmd_report)

    figure = sub.add_parser("figure", help="DOT source of a figure")
    figure.add_argument("--which", default="g0", choices=("g0", "pgcf"))
    figure.add_argument("--cells", type=int, default=2)
    figure.set_defaults(func=_cmd_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The raw invocation, kept so interrupt handlers can print the
    # exact resume command.
    args._argv = list(sys.argv[1:] if argv is None else argv)
    try:
        check_backend(getattr(args, "backend", "auto"))
    except ValueError as error:
        raise SystemExit(str(error))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
