/* repro native tile kernels: adi
 *
 * Generated translation unit — do not edit.  Each F_<array>
 * is the statement's kernel in exact IEEE-754 order (hex
 * double literals, full parenthesization); repro_run walks
 * wavefront-level segments of one tile lattice.  Compiled
 * with -ffp-contract=off so a*b+c never fuses into fma.
 * abi=1
 */

static double F_X(double v0, double v1, double v2, double v3, double v4, double v5) {
    return ((v0 + ((v1 * v5) / v2)) - ((v3 * v5) / v4));
}

static double F_B(double v0, double v1, double v2, double v3) {
    return ((v0 - ((v3 * v3) / v1)) - ((v3 * v3) / v2));
}

void repro_run(long nseg, const long *seg_off, const long *sel,
               long shift, double **bufs, const long *wbase,
               const long **rbase, const double **pure,
               const unsigned char **oob, const double **fix)
{
    double *b_X = bufs[0];
    double *b_B = bufs[1];
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
    const long *rb5 = rbase[5];
    const unsigned char *ob5 = oob[5];
    const double *fx5 = fix[5];
    const long *rb6 = rbase[6];
    const unsigned char *ob6 = oob[6];
    const double *fx6 = fix[6];
    const long *rb7 = rbase[7];
    const unsigned char *ob7 = oob[7];
    const double *fx7 = fix[7];
    const double *pt0 = pure[0];
    const double *pt1 = pure[1];
    (void)pure; (void)rbase; (void)oob; (void)fix;
    for (long s_ = 0; s_ < nseg; ++s_) {
        for (long p_ = seg_off[s_]; p_ < seg_off[s_ + 1]; ++p_) {
            const long i_ = sel[p_];
            b_X[wbase[i_] + shift] = F_X(
                ((ob0 && ob0[i_]) ? fx0[i_] : b_X[rb0[i_] + shift]),
                ((ob1 && ob1[i_]) ? fx1[i_] : b_X[rb1[i_] + shift]),
                ((ob2 && ob2[i_]) ? fx2[i_] : b_B[rb2[i_] + shift]),
                ((ob3 && ob3[i_]) ? fx3[i_] : b_X[rb3[i_] + shift]),
                ((ob4 && ob4[i_]) ? fx4[i_] : b_B[rb4[i_] + shift]),
                pt0[i_]);
            b_B[wbase[i_] + shift] = F_B(
                ((ob5 && ob5[i_]) ? fx5[i_] : b_B[rb5[i_] + shift]),
                ((ob6 && ob6[i_]) ? fx6[i_] : b_B[rb6[i_] + shift]),
                ((ob7 && ob7[i_]) ? fx7[i_] : b_B[rb7[i_] + shift]),
                pt1[i_]);
        }
    }
}
