"""Every function of src/beltbound runs under the program's own traffic.

The traffic is what users and the benchmark run: the README's commands and
Python sessions, one --config run, one estimate --format csv run, and the
first input of each benchmark workload, run and checked.  A function that
none of it reaches is named in ALLOWED with its reason; any other such
function is test-only code, whose place is tests/helpers.py.
"""

import contextlib
import importlib.util
import inspect
import io
import json
import os
import re
import shlex
import sys
import types

from helpers import non_json_types

import beltbound
from beltbound import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.dirname(beltbound.__file__)  # as the code objects name their files
SEED = 7

# module:qualname -> why no program path needs to reach it
ALLOWED = {
    "cli:main": "the console script; the traffic calls run(), to which main hands sys.argv",
    "estimator:SweepConfig.families": "benchmark/run.py calls it, to ask whether the window "
                                      "family ran (goes with ROADMAP item 17)",
    "periodic_fields:PeriodicField.eval_at": "benchmark/tracer.py times it "
                                             "(goes with ROADMAP item 17)",
    "reduction:BeltramiPair.on_circle": "benchmark/tracer.py patches it "
                                        "(goes with ROADMAP item 17)",
    "stretching:phase_advance": "benchmark/tracer.py patches it (goes with ROADMAP item 17)",
    "estimator:gamma_estimate": "paper API: the exponent bound of a symmetric matrix field; "
                                "beta is the gamma of B",
    "reduction:normalize_matrix.<locals>.entries_fn": "paper API: A/det A of a pointwise "
                                                      "field; the program normalizes only "
                                                      "angular ones",
    "verify:_fd_derivatives": "paper API: beltrami_residual's finite-difference branch, a "
                              "check of a map that does not read its closed form",
}


def _functions(code, prefix):
    """(qualname, code object) of every function compiled into code, nested
    ones included; lambdas and comprehensions are not looked at."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                yield name, const
                yield from _functions(const, name + ".<locals>.")
            else:
                yield from _functions(const, name + ".")


def defined_functions():
    """{(file, first line, name): module:qualname} over src/beltbound."""
    out = {}
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE, filename)
            with open(path, encoding="utf-8") as fh:
                module = compile(fh.read(), path, "exec")
            for name, code in _functions(module, ""):
                out[(path, code.co_firstlineno, code.co_name)] = f"{filename[:-3]}:{name}"
    return out


def readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def load_workloads():
    path = os.path.join(ROOT, "benchmark", "workloads.py")
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(module)
    return module.WORKLOADS


def clear_caches():
    """Empty the library's function caches, so that the traffic runs what an
    earlier test left in them."""
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("beltbound.")]
    names = [v for m in modules for v in vars(m).values()]
    names += [v for c in names if isinstance(c, type) for v in vars(c).values()]
    for obj in names:
        clear = getattr(getattr(obj, "__func__", obj), "cache_clear", None)
        if clear is not None:
            clear()


def run_traffic(workdir):
    """The README's commands and sessions, a --config and a csv run, and the
    first input of each benchmark workload, each checked as it runs."""
    text = readme()
    commands = [shlex.split(line, comments=True)[1:]
                for line in text.splitlines() if line.startswith("beltbound --")]
    assert len(commands) == 5, commands
    config = os.path.join(workdir, "job.json")
    with open(config, "w") as fh:
        json.dump({"command": "estimate", "alpha": 0.5}, fh)
    commands += [["--config", config],
                 ["--command", "estimate", "--M", "2", "--tau", "0.5", "--format", "csv"]]
    sessions = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(sessions) == 2
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert cli.run(argv) == (4 if "--corrupt-mu" in argv else 0), argv
        for code in sessions:
            exec(compile(code, "README.md", "exec"), {})
    for w in load_workloads().values():
        inp = w.make_inputs(SEED, 1, workdir)[0]
        failures, _ = w.check(inp, w.run(inp, lambda _: contextlib.nullcontext()))
        assert not failures, (w.name, failures)


def test_every_src_function_runs_under_the_program_traffic(tmp_path, monkeypatch):
    defined = defined_functions()
    assert set(ALLOWED) <= set(defined.values()), set(ALLOWED) - set(defined.values())
    monkeypatch.chdir(tmp_path)  # the README sweep writes scan.csv
    seen = set()

    def trace(frame, event, arg):
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    clear_caches()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run_traffic(str(tmp_path))
    finally:
        sys.settrace(previous)
    unreached = {name for key, name in defined.items() if key not in seen}
    # a function outside ALLOWED that nothing runs is test-only; an ALLOWED
    # one that the traffic now reaches needs no reason any more
    assert unreached == set(ALLOWED), {"unreached, not allowed": sorted(unreached - set(ALLOWED)),
                                       "allowed, but reached": sorted(set(ALLOWED) - unreached)}


def test_every_traffic_payload_is_plain_json(tmp_path, monkeypatch):
    # the writer takes exact JSON types only, and writes them as the stdlib
    # does; every payload of the traffic is one of the kind
    monkeypatch.chdir(tmp_path)
    payloads, emit = [], cli._emit

    def recorded(payload, spec):
        payloads.append(payload)
        emit(payload, spec)

    monkeypatch.setattr(cli, "_emit", recorded)
    run_traffic(str(tmp_path))
    assert len(payloads) == 8  # seven commands and the lattice-cli input
    for payload in payloads:
        assert non_json_types(payload) == set()
        assert cli._json_text(payload) == json.dumps(payload, indent=2)
