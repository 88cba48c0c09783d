"""Reference scorers written from the model equations in the dialeval module
docstrings, with dense vectors and matrices instead of the program's sparse
bags and loops.  They take token bags (the featurization under test is
checked separately) and model parameters, and return one score per candidate.

  memn2n  u_0 = A_in b,  m_i = A_mem x_i + T[s_i]
          hop k: p = softmax(u . m_i),  u += R_k sum_i p_i m_i
          score_c = u . (W^T y_c)
  supemb  score_c = (U_in x) . (U_out y_c)
  ir      score_c = cos(tfidf(x), tfidf(y_c)),  idf(t) = ln(N / df(t)) over the
          N training responses; terms no training response holds weigh 0
"""

from __future__ import annotations

import numpy as np


def dense(bags: list[dict[int, int]], V: int) -> np.ndarray:
    """Rows of token counts, one per bag."""
    out = np.zeros((len(bags), V))
    for r, b in enumerate(bags):
        for t, c in b.items():
            out[r, t] += c
    return out


def memn2n_scores(A_in, A_mem, W, R, T, input_bag, memory_bags, slots,
                  candidate_bags) -> np.ndarray:
    V = A_in.shape[1]
    u = A_in @ dense([input_bag], V)[0]
    if memory_bags:
        M = dense(memory_bags, V) @ A_mem.T + T[np.asarray(slots)]
        for Rk in R:
            z = M @ u
            p = np.exp(z - z.max())
            p /= p.sum()
            u = u + Rk @ (p @ M)
    return dense(candidate_bags, V) @ (W @ u)


def supemb_scores(U_in, U_out, query_bag, candidate_bags) -> np.ndarray:
    V = U_in.shape[1]
    x = U_in @ dense([query_bag], V)[0]
    return dense(candidate_bags, V) @ (U_out.T @ x)


def idf_from_responses(response_bags: list[dict[int, int]], V: int) -> np.ndarray:
    df = (dense(response_bags, V) > 0).sum(axis=0)
    idf = np.zeros(V)
    seen = df > 0
    idf[seen] = np.log(len(response_bags) / df[seen])
    return idf


def ir_scores(idf: np.ndarray, query_bag, candidate_bags) -> np.ndarray:
    V = idf.shape[0]
    q = dense([query_bag], V)[0] * idf
    C = dense(candidate_bags, V) * idf
    dots = C @ q
    norms = np.linalg.norm(C, axis=1) * np.linalg.norm(q)
    out = np.zeros(len(candidate_bags))
    nz = dots != 0.0
    out[nz] = dots[nz] / norms[nz]
    return out
