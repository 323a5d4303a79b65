"""Every tape op has a float64 finite-difference test and a packing test.

The op names are read from the package, as `test_tracer_targets.py`
reads the tracer's targets: the string literal that each `record_op(...)`
call passes first (`conftest.op_names`). A new op fails this guard until
OPS lists both of its tests; a listed test that is renamed or deleted
fails it too.
"""

import ast
from pathlib import Path

import pytest

from conftest import op_names

TESTS = Path(__file__).resolve().parent

# op -> (its gradient test against finite differences, run in float64;
#        its test that an instance comes out the same alone as in a batch)
OPS = {
    "embed": ("test_features.py::TestEmbed::test_gradient_hits_only_looked_up_rows",
              "test_features.py::TestEmbed::test_instance_alone_matches_its_batch_rows"),
    "bilstm_forward": ("test_recurrent.py::TestLstmSequence::test_bilstm_batch_gradients",
                       "test_recurrent.py::TestBilstm::test_packed_neighbours_are_ignored"),
    "max_pool": ("test_pooling.py::TestMaxPool::test_gradients_through_mask",
                 "test_pooling.py::TestBatchedPooling::test_each_column_pools_like_its_own_sentence"),
    "attentive_pool": (
        "test_pooling.py::TestAttentivePool::test_gradients_through_mask",
        "test_pooling.py::TestBatchedPooling::test_each_column_pools_like_its_own_sentence"),
    "output_layer": ("test_autodiff.py::TestAffine::test_gradients",
                     "test_autodiff.py::TestAffine::test_row_alone_matches_its_batch_row"),
    "softmax_cross_entropy": (
        "test_training.py::TestSoftmaxCrossEntropy::test_gradient_matches_finite_differences",
        "test_training.py::TestSoftmaxCrossEntropy::test_batch_is_mean_of_rows"),
}


def find_test(test_id: str):
    """The FunctionDef that `file::Class::function` names, or None."""
    fname, cls, func = test_id.split("::")
    for node in ast.parse((TESTS / fname).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return next((f for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name == func), None)
    return None


def test_each_op_is_recorded_once_under_its_own_name():
    names = op_names()
    assert len(names) == len(set(names)), names


def test_every_op_is_listed():
    assert set(op_names()) == set(OPS)


@pytest.mark.parametrize("op", sorted(OPS))
def test_listed_tests_exist(op):
    gradient, packing = OPS[op]
    found = find_test(gradient)
    assert found is not None, f"{op}: no gradient test {gradient}"
    assert "float64_mode" in [a.arg for a in found.args.args], f"{gradient} is not float64"
    assert find_test(packing) is not None, f"{op}: no packing test {packing}"
