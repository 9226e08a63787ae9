"""Dense reference values that the library's own routes are tested against."""
from tanglekit import hermitian_eigenvalues, kway_pt
from tanglekit.spectra import NEG_EIG_TOL


def dense_kway_negativity(rho, p, K):
    """Twice the absolute sum of the negative eigenvalues of the dense K-way transpose of rho.

    rho is any DensityOperator, pure or mixed; ``kway_negativity`` takes pure states only.
    """
    eigs = hermitian_eigenvalues(kway_pt(rho, p, K))
    negative = eigs[eigs < -NEG_EIG_TOL]
    return float(2.0 * abs(negative.sum()))
