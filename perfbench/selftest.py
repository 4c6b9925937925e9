"""Proves that the benchmark's output check fires.

    python3 perfbench/selftest.py

For every workload it runs one operation through the same Checker the
benchmark uses, three times: unchanged (must pass), with its reference
digest altered (must count as wrong), and with an aslab entry point
monkeypatched to return a corrupted result for an input that has no
reference digest (must count as wrong through the invariant check alone).
Exits non-zero on the first assertion that fails.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run._import_aslab()

import workloads  # noqa: E402
from aslab import cli, dickson, tensor  # noqa: E402
from aslab.linalg import JordanType  # noqa: E402

UNSEEN_SEED = 987654321


def judge(ops, i, reference):
    checker = run.Checker(reference)
    _, _, outcomes = run.run_pass([ops[i]])
    run.check_pass([ops[i]], outcomes, checker)
    return checker


def drop_last_block(original):
    return lambda inst: JordanType(list(original(inst))[:-1])


def double_degree(original):
    def corrupted(r, q, **kw):
        res = original(r, q, **kw)
        res.degree_over_f *= 2
        return res
    return corrupted


def wrong_command(original):
    def corrupted(argv=None):
        print('{"schema_version": 1, "command": "grid", "result": {}}')
        return 0
    return corrupted


# workload -> (operation kind to corrupt, module, attribute, corruption)
CORRUPTIONS = {
    "ad-prime": ("tensor.oracle", tensor, "tensor_jordan_type_oracle", drop_last_block),
    "ext-field": ("dickson.primitive_element", dickson, "primitive_element", double_degree),
    "cli-mix": ("cli.decompose-tensor", cli, "main", wrong_command),
}


def first_op(ops, kind, accept=lambda op: True):
    return next(i for i, op in enumerate(ops) if op.kind == kind and accept(op))


def main():
    for workload, (kind, module, attr, corrupt) in CORRUPTIONS.items():
        reference = run.load_reference(workload)
        ops = workloads.build(workload, 0)
        valid = lambda op: op.check is not workloads._invalid_cli_check  # noqa: E731
        i = first_op(ops, kind, lambda op: op.key in reference and valid(op))

        clean = judge(ops, i, reference)
        assert clean.failed == 0, (workload, "clean run failed", clean.examples)

        altered = dict(reference)
        altered[ops[i].key] = "0" * 16
        checker = judge(ops, i, altered)
        assert checker.tally["wrong"] == 1 and checker.failed == 1, (workload, checker.tally)

        unseen = workloads.build(workload, UNSEEN_SEED)
        j = first_op(unseen, kind, lambda op: op.key not in reference and valid(op))
        original = getattr(module, attr)
        setattr(module, attr, corrupt(original))
        try:
            checker = judge(unseen, j, reference)
        finally:
            setattr(module, attr, original)
        assert checker.tally["wrong"] == 1 and checker.failed == 1, (workload, checker.tally)
        print(f"{workload}: clean pass, altered digest and corrupted {attr} both counted wrong "
              f"({checker.examples['wrong'][0]})")
    print("selftest passed")


if __name__ == "__main__":
    main()
