"""What 2N-photon state do N pair sources actually produce?

Distributing the shared output mode of N psi+ pair sources over an N-port and
keeping one photon per mode is sometimes described as preparing the balanced
2N-photon Dicke state.  Exact simulation shows this only holds for N = 1: for
N >= 2 the conditional state is the Schmidt superposition

    (N+1)^(-1/2) * sum_k (+-1)^k |D_N^(k)>_A |D_N^(N-k)>_B

whose computational-basis amplitudes are NOT uniform over weight-N strings.
The collinear construction (splitting (a_H a_V)^N |0> over 2N modes) does
give the balanced Dicke state exactly.  Run `symphot identity-check` to see
the same numbers from the command line.
"""

from math import comb, sqrt

import numpy as np

from symphot import dicke_state, postselect_one_per_mode
from symphot.multiport import build_cascade, distribute
from symphot.schemes import PSI_PLUS, cl_input_state, dicke_2n_construction
from symphot.symmetric import hamming_weights


def schmidt_expected(n):
    # rows of the (2^N, 2^N) view index the A half, columns the B half
    k = hamming_weights(n)[:, None]
    weight = 1.0 / (sqrt(n + 1) * np.array([comb(n, j) for j in range(n + 1)]))
    amps = np.where(k + hamming_weights(n)[None, :] == n, weight[k], 0.0)
    return amps.reshape(-1)


if __name__ == "__main__":
    for n in (1, 2, 3):
        target = dicke_state(2 * n, n)

        out = distribute(cl_input_state(n), build_cascade(2 * n))
        cl_qubits, _ = postselect_one_per_mode(out)
        dev_cl = np.max(np.abs(cl_qubits.amplitudes - target.amplitudes))

        ncl_qubits, _ = postselect_one_per_mode(dicke_2n_construction(n, PSI_PLUS))
        dev_dicke = np.max(np.abs(ncl_qubits.amplitudes - target.amplitudes))
        dev_schmidt = np.max(np.abs(ncl_qubits.amplitudes - schmidt_expected(n)))

        print(f"N={n} (2N={2 * n} photons)")
        print(f"  collinear vs balanced Dicke      : {dev_cl:.3e}")
        print(f"  psi+ pairs vs balanced Dicke     : {dev_dicke:.3e}")
        print(f"  psi+ pairs vs Schmidt form above : {dev_schmidt:.3e}")
        print()
