from outcome import Attempt, classify, is_known_defect


def ok(code, digest="d"):
    return Attempt(code, digest)


def test_true_identity_that_exits_0_is_right():
    assert classify(0, [ok(0), ok(0)]) is None


def test_perturbed_control_that_exits_1_is_right():
    assert classify(1, [ok(1), ok(1)]) is None


def test_perturbed_control_that_exits_0_is_wrong():
    assert classify(1, [ok(0), ok(0)]) == "exit 0, expected 1"


def test_true_identity_that_exits_1_is_wrong():
    assert classify(0, [ok(1)]) == "exit 1, expected 0"


def test_exit_2_is_wrong_for_either_expectation():
    for expect in (0, 1):
        assert classify(expect, [ok(expect), ok(2)]) == "exit 2 on well-formed input"


def test_raising_is_wrong():
    a = Attempt(None, "d", "RuntimeError: collocation failed")
    assert classify(0, [ok(0), a]) == "raised RuntimeError: collocation failed"


def test_json_bytes_differing_between_passes_is_wrong():
    assert classify(0, [ok(0, "a"), ok(0, "b")]) == "--json bytes differ between passes"


def test_no_attempt_is_an_error():
    try:
        classify(0, [])
    except ValueError:
        return
    raise AssertionError("classify accepted a case that never ran")


def test_known_defect_is_only_a_listed_exit_1_identity():
    known = {"chain tq L=8": "residual above tolerance"}
    assert is_known_defect("chain tq L=8", "exit 1, expected 0", known)
    assert not is_known_defect("chain tq L=7", "exit 1, expected 0", known)
    assert not is_known_defect("chain tq L=8", "exit 2 on well-formed input", known)
    assert not is_known_defect("chain tq L=8", None, known)
