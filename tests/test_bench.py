from rootradii.bench import cell_seed, run_cell
from rootradii.oracle import generate_family


def test_type2_keeps_only_roots_where_the_imaginary_part_vanishes():
    # the real part of this complex-coefficient cell has a real root 4.5e-4
    # from every root of p; the imaginary part keeps its sign there, so that
    # root must not be reported
    seed = cell_seed(1, 256, 12, 2)
    assert not generate_family(2, 256, 12, seed).is_real
    row = run_cell(256, 12, 2, seed)
    assert not row.failed and row.oracle_converged
    assert row.max_error <= 1e-10
