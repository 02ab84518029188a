"""The exact kernel: fraction-free linear algebra over the Gaussian integers.

Matrices are flat row-major pairs of int sequences (real, imaginary).
"""


def backend_name() -> str:
    return "pure"


def ffgj(re, im, nrows, ncols):
    """Fraction-free Gauss-Jordan elimination over Z[i].

    Returns (re2, im2, pivots, dre, dim): the input matrix has reduced row
    echelon form (re2 + i*im2) / (dre + i*dim), with pivot columns listed in
    order and all non-pivot rows zero.  Division by the previous pivot is
    exact at every step (Bareiss one-step update extended to Jordan form);
    on exit every pivot entry equals the returned divisor.
    """
    m_re = list(re)
    m_im = list(im)
    pivots = []
    prev_re, prev_im = 1, 0
    pr = 0
    for pc in range(ncols):
        if pr >= nrows:
            break
        best = -1
        best_key = 0
        for r in range(pr, nrows):
            a = m_re[r * ncols + pc]
            b = m_im[r * ncols + pc]
            if a or b:
                key = (a if a >= 0 else -a).bit_length() + (b if b >= 0 else -b).bit_length()
                if best < 0 or key < best_key:
                    best = r
                    best_key = key
        if best < 0:
            continue
        if best != pr:
            for c in range(ncols):
                i1 = pr * ncols + c
                i2 = best * ncols + c
                m_re[i1], m_re[i2] = m_re[i2], m_re[i1]
                m_im[i1], m_im[i2] = m_im[i2], m_im[i1]
        base = pr * ncols
        p_re = m_re[base + pc]
        p_im = m_im[base + pc]
        pn = prev_re * prev_re + prev_im * prev_im
        trivial_prev = prev_re == 1 and prev_im == 0
        for r in range(nrows):
            if r == pr:
                continue
            row = r * ncols
            f_re = m_re[row + pc]
            f_im = m_im[row + pc]
            if f_re == 0 and f_im == 0:
                if p_re == 1 and p_im == 0 and trivial_prev:
                    continue
                for c in range(ncols):
                    a = m_re[row + c]
                    b = m_im[row + c]
                    if a == 0 and b == 0:
                        continue
                    n_re = p_re * a - p_im * b
                    n_im = p_re * b + p_im * a
                    if trivial_prev:
                        m_re[row + c] = n_re
                        m_im[row + c] = n_im
                    else:
                        m_re[row + c] = (n_re * prev_re + n_im * prev_im) // pn
                        m_im[row + c] = (n_im * prev_re - n_re * prev_im) // pn
                continue
            for c in range(ncols):
                if c == pc:
                    continue
                a = m_re[row + c]
                b = m_im[row + c]
                u = m_re[base + c]
                v = m_im[base + c]
                n_re = (p_re * a - p_im * b) - (f_re * u - f_im * v)
                n_im = (p_re * b + p_im * a) - (f_re * v + f_im * u)
                if trivial_prev:
                    m_re[row + c] = n_re
                    m_im[row + c] = n_im
                else:
                    m_re[row + c] = (n_re * prev_re + n_im * prev_im) // pn
                    m_im[row + c] = (n_im * prev_re - n_re * prev_im) // pn
            m_re[row + pc] = 0
            m_im[row + pc] = 0
        pivots.append(pc)
        prev_re, prev_im = p_re, p_im
        pr += 1
    return m_re, m_im, pivots, prev_re, prev_im


def matmul(are, aim, n, k, bre, bim, m):
    """Product of an n*k and a k*m matrix over Z[i], flat row-major."""
    c_re = [0] * (n * m)
    c_im = [0] * (n * m)
    for i in range(n):
        arow = i * k
        crow = i * m
        for t in range(k):
            a = are[arow + t]
            b = aim[arow + t]
            if a == 0 and b == 0:
                continue
            brow = t * m
            for j in range(m):
                u = bre[brow + j]
                v = bim[brow + j]
                if u == 0 and v == 0:
                    continue
                c_re[crow + j] += a * u - b * v
                c_im[crow + j] += a * v + b * u
    return c_re, c_im
