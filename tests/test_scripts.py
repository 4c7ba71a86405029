import dataclasses
import gc
import pickle
import tracemalloc

import pytest

from swapinsert import (
    Delete,
    EqualSymbolSwap,
    Insert,
    InvalidPosition,
    Script,
    Swap,
    apply_script,
    verify_script,
)


def test_single_swap():
    assert apply_script("ba", Script((Swap(1),))) == "ab"


def test_inserts_build_from_empty():
    script = Script((Insert(1, "a"), Insert(2, "b")))
    assert apply_script("", script) == "ab"


def test_swap_then_insert():
    script = Script((Swap(1), Insert(1, "a")))
    assert apply_script("ba", script) == "aab"


def test_delete_op():
    assert apply_script("aab", Script((Delete(1),))) == "ab"


def test_bytes_round_trip():
    script = Script((Swap(1),))
    assert apply_script(b"ba", script) == b"ab"


def test_insert_position_bounds():
    with pytest.raises(InvalidPosition) as err:
        apply_script("ab", Script((Insert(4, "x"),)))
    assert err.value.op_index == 0


def test_swap_position_bounds():
    with pytest.raises(InvalidPosition):
        apply_script("ab", Script((Swap(2),)))
    with pytest.raises(InvalidPosition):
        apply_script("ab", Script((Swap(0),)))


def test_delete_position_bounds():
    with pytest.raises(InvalidPosition):
        apply_script("ab", Script((Delete(3),)))


def test_equal_symbol_swap_rejected():
    with pytest.raises(EqualSymbolSwap) as err:
        apply_script("aa", Script((Swap(1),)))
    assert err.value.position == 1


def test_error_carries_failing_op_index():
    script = Script((Insert(1, "a"), Swap(5)))
    with pytest.raises(InvalidPosition) as err:
        apply_script("ab", script)
    assert err.value.op_index == 1


def test_script_counters():
    script = Script((Insert(1, "a"), Swap(1), Insert(1, "b"), Delete(2)))
    assert script.total_cost == len(script) == 4
    assert script.insert_count == 2
    assert script.swap_count == 1
    assert script.delete_count == 1


def test_edit_ops_are_slotted_frozen_values():
    for op, same, other in ((Insert(2, "a"), Insert(2, "a"), Insert(2, "b")),
                            (Swap(3), Swap(3), Swap(4)),
                            (Delete(1), Delete(1), Delete(2))):
        assert not hasattr(op, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.position = 9
        assert op == same and hash(op) == hash(same)
        assert op != other
        assert pickle.loads(pickle.dumps(op)) == op
    assert Swap(1) != Delete(1)
    assert repr(Insert(2, "a")) == "Insert(position=2, symbol='a')"
    assert repr(Swap(3)) == "Swap(position=3)"
    assert repr(Delete(1)) == "Delete(position=1)"


def test_swap_ops_take_under_96_bytes_each():
    # a long script is mostly swaps; each op with its position int costs
    # 76-80 B slotted, against 112-188 B with a per-instance __dict__
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ops = list(map(Swap, range(10 ** 6, 10 ** 6 + 10 ** 5)))
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert used < 96 * len(ops), used / len(ops)


# -- verification -----------------------------------------------------------

def test_verify_valid_swap():
    verdict = verify_script("ba", "ab", Script((Swap(1),)))
    assert verdict.valid
    assert verdict.cost == 1
    assert verdict.swap_count == 1
    assert verdict.insert_count == 0


def test_verify_empty_script_wrong_target():
    verdict = verify_script("ba", "ab", Script(()))
    assert not verdict.valid
    assert verdict.reason == "result does not match target"


def test_verify_non_minimal_but_valid():
    # reaches the target with two redundant swaps; validity is not minimality
    verdict = verify_script("ab", "ab", Script((Swap(1), Swap(1))))
    assert verdict.valid
    assert verdict.cost == 2


def test_verify_flags_equal_symbol_swap():
    verdict = verify_script("aa", "aa", Script((Swap(1),)))
    assert not verdict.valid
    assert "equal symbols" in verdict.reason


def test_verify_flags_bad_position():
    verdict = verify_script("ab", "ab", Script((Swap(9),)))
    assert not verdict.valid
    assert "op 0" in verdict.reason
