import numpy as np
import pytest

from dunklkit import (
    dunkl_operator_matrix,
    hamiltonian_matrix,
    hermite_functions_1d,
    position_operator_matrix,
)
from dunklkit.dunklops import dunkl_action_1d


class TestDunklAction:
    def test_finite_difference_oracle(self):
        # T f = f' + kappa (f(x) - f(-x)) / x, checked against central
        # differences of the basis-function tables
        kappa = 0.8
        x = np.array([0.4, 1.1, -0.7, 2.0])
        h = 1e-6
        action = dunkl_action_1d(kappa, 8, x)
        up = hermite_functions_1d(kappa, 8, x + h)
        dn = hermite_functions_1d(kappa, 8, x - h)
        mid = hermite_functions_1d(kappa, 8, x)
        neg = hermite_functions_1d(kappa, 8, -x)
        fd = (up - dn) / (2 * h) + kappa * (mid - neg) / x
        np.testing.assert_allclose(action, fd, atol=1e-8)

    def test_classical_reduces_to_derivative(self):
        x = np.linspace(-2, 2, 9)
        h = 1e-6
        action = dunkl_action_1d(0.0, 6, x)
        fd = (hermite_functions_1d(0.0, 6, x + h) - hermite_functions_1d(0.0, 6, x - h)) / (
            2 * h
        )
        np.testing.assert_allclose(action, fd, atol=1e-8)


class TestMatrices:
    @pytest.mark.parametrize("fixture", ["basis_1d_classical", "basis_1d_half", "basis_1d_one"])
    def test_ladder_structure(self, fixture, request):
        # with a_n = sqrt((n + 2 kappa [n odd]) / 2), x is the symmetric and T
        # the skew tridiagonal of the ladder (sqrt(n/2) at kappa = 0); the
        # quadrature is exact on both, the truncation edge included
        basis = request.getfixturevalue(fixture)
        n = np.arange(1, basis.size)
        upper = np.diag(np.sqrt(0.5 * (n + 2.0 * basis.structure.kappa[0] * (n % 2))), 1)
        np.testing.assert_allclose(
            position_operator_matrix(basis, 1), upper + upper.T, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            dunkl_operator_matrix(basis, 1), upper - upper.T, rtol=0, atol=1e-12
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
