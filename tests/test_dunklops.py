import numpy as np
import pytest

from dunklkit import (
    DunklStructure,
    build_basis,
    dunkl_operator_matrix,
    hamiltonian_matrix,
    hermite_functions_1d,
    position_operator_matrix,
    tensor_grid,
)

from shell_oracle import eval_table


def dunkl_action(kappa, nmax, x):
    """Values of T phi_n at x for n = 0..nmax, shape (nmax + 1, len(x)): the
    columns of the T matrix at degree nmax + 1, which hold them exactly."""
    s = DunklStructure(1, (kappa,))
    basis = build_basis(s, nmax + 1, tensor_grid(s, nmax + 2))
    table = hermite_functions_1d(kappa, nmax + 1, x)
    return (dunkl_operator_matrix(basis, 1).T @ table)[: nmax + 1]


def central_difference_action(kappa, nmax, x, h=1e-6):
    """T phi_n = phi_n' + kappa (phi_n(x) - phi_n(-x)) / x by central differences."""
    up = hermite_functions_1d(kappa, nmax, x + h)
    dn = hermite_functions_1d(kappa, nmax, x - h)
    mid = hermite_functions_1d(kappa, nmax, x)
    neg = hermite_functions_1d(kappa, nmax, -x)
    return (up - dn) / (2 * h) + kappa * (mid - neg) / x


class TestDunklAction:
    def test_finite_difference_oracle(self):
        x = np.array([0.4, 1.1, -0.7, 2.0])
        np.testing.assert_allclose(
            dunkl_action(0.8, 8, x), central_difference_action(0.8, 8, x), atol=1e-8
        )

    def test_classical_reduces_to_derivative(self):
        x = np.linspace(-2, 2, 9)
        h = 1e-6
        fd = (hermite_functions_1d(0.0, 6, x + h) - hermite_functions_1d(0.0, 6, x - h)) / (
            2 * h
        )
        np.testing.assert_allclose(dunkl_action(0.0, 6, x), fd, atol=1e-8)


class TestMatrices:
    @pytest.mark.parametrize("fixture", ["basis_1d_classical", "basis_1d_half", "basis_1d_one"])
    def test_quadrature_oracle(self, fixture, request):
        # the ladder matrices against Gaussian quadrature of the actions on
        # the basis grid, <A phi_n, phi_m> = sum_k w_k (A phi_n)(x_k) phi_m(x_k):
        # exact for x, through central differences for T; the quadrature is
        # exact on both, the truncation edge included
        basis = request.getfixturevalue(fixture)
        kappa = basis.structure.kappa[0]
        x = basis.grid.nodes[:, 0]
        table = eval_table(basis)
        weighted = table * basis.grid.weights
        np.testing.assert_allclose(
            position_operator_matrix(basis, 1), weighted @ (table * x).T, rtol=0, atol=1e-12
        )
        action = central_difference_action(kappa, basis.per_dim_degree, x)
        np.testing.assert_allclose(
            dunkl_operator_matrix(basis, 1), weighted @ action.T, rtol=0, atol=1e-6
        )

    def test_position_self_adjoint_dunkl_antisymmetric_blocks(self, basis_1d_one):
        basis = basis_1d_one
        xmat = position_operator_matrix(basis, 1)
        tmat = dunkl_operator_matrix(basis, 1)
        assert np.abs(xmat - xmat.T).max() < 1e-12
        # T is skew-adjoint in L^2_kappa
        assert np.abs(tmat + tmat.T).max() < 1e-10

    def test_parity_selection_rule(self, basis_1d_one):
        # both x and T flip parity: entries vanish unless m - n is odd
        basis = basis_1d_one
        par = basis.multi_indices.sum(axis=1) % 2
        same = par[:, None] == par[None, :]
        assert np.abs(position_operator_matrix(basis, 1)[same]).max() < 1e-12
        assert np.abs(dunkl_operator_matrix(basis, 1)[same]).max() < 1e-12

    def test_commutator_interior(self, basis_1d_half):
        # [T, x] = 1 + 2 kappa R; on even functions this is 1 + 2 kappa,
        # on odd functions 1 - 2 kappa.  Check well inside the truncation.
        basis = basis_1d_half
        kappa = basis.structure.kappa[0]
        xmat = position_operator_matrix(basis, 1)
        tmat = dunkl_operator_matrix(basis, 1)
        comm = tmat @ xmat - xmat @ tmat
        par = basis.multi_indices.sum(axis=1) % 2
        expected = np.diag(np.where(par == 0, 1.0 + 2 * kappa, 1.0 - 2 * kappa))
        cut = basis.size - 4
        np.testing.assert_allclose(comm[:cut, :cut], expected[:cut, :cut], atol=1e-9)

    def test_hamiltonian_diagonal_interior(self, basis_1d_half):
        basis = basis_1d_half
        h = hamiltonian_matrix(basis)
        interior = basis.multi_indices.max(axis=1) <= basis.per_dim_degree - 1
        block = h[np.ix_(interior, interior)]
        np.testing.assert_allclose(
            block, np.diag(basis.eigenvalues[interior]), atol=1e-8
        )

    def test_hamiltonian_2d(self, basis_2d):
        basis = basis_2d
        h = hamiltonian_matrix(basis)
        interior = basis.multi_indices.max(axis=1) <= basis.per_dim_degree - 1
        block = h[np.ix_(interior, interior)]
        np.testing.assert_allclose(
            block, np.diag(basis.eigenvalues[interior]), atol=1e-8
        )

    def test_coordinate_index_validation(self, basis_1d_half):
        with pytest.raises(ValueError):
            dunkl_operator_matrix(basis_1d_half, 0)
        with pytest.raises(ValueError):
            position_operator_matrix(basis_1d_half, 2)
