/* repro native tile kernels: sor_skewed
 *
 * Generated translation unit — do not edit.  Each F_<array>
 * is the statement's kernel in exact IEEE-754 order (hex
 * double literals, full parenthesization); repro_run walks
 * wavefront-level segments of one tile lattice.  Compiled
 * with -ffp-contract=off so a*b+c never fuses into fma.
 * abi=1
 */

static double F_A(double v0, double v1, double v2, double v3, double v4) {
    return ((0x1.ccccccccccccdp-3 * (((v0 + v1) + v2) + v3)) + (0x1.9999999999998p-4 * v4));
}

void repro_run(long nseg, const long *seg_off, const long *sel,
               long shift, double **bufs, const long *wbase,
               const long **rbase, const double **pure,
               const unsigned char **oob, const double **fix)
{
    double *b_A = bufs[0];
    const long *rb0 = rbase[0];
    const unsigned char *ob0 = oob[0];
    const double *fx0 = fix[0];
    const long *rb1 = rbase[1];
    const unsigned char *ob1 = oob[1];
    const double *fx1 = fix[1];
    const long *rb2 = rbase[2];
    const unsigned char *ob2 = oob[2];
    const double *fx2 = fix[2];
    const long *rb3 = rbase[3];
    const unsigned char *ob3 = oob[3];
    const double *fx3 = fix[3];
    const long *rb4 = rbase[4];
    const unsigned char *ob4 = oob[4];
    const double *fx4 = fix[4];
    (void)pure; (void)rbase; (void)oob; (void)fix;
    for (long s_ = 0; s_ < nseg; ++s_) {
        for (long p_ = seg_off[s_]; p_ < seg_off[s_ + 1]; ++p_) {
            const long i_ = sel[p_];
            b_A[wbase[i_] + shift] = F_A(
                ((ob0 && ob0[i_]) ? fx0[i_] : b_A[rb0[i_] + shift]),
                ((ob1 && ob1[i_]) ? fx1[i_] : b_A[rb1[i_] + shift]),
                ((ob2 && ob2[i_]) ? fx2[i_] : b_A[rb2[i_] + shift]),
                ((ob3 && ob3[i_]) ? fx3[i_] : b_A[rb3[i_] + shift]),
                ((ob4 && ob4[i_]) ? fx4[i_] : b_A[rb4[i_] + shift]));
        }
    }
}
