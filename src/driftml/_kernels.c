/* The compiled kernels of driftml's classifiers. Each works in a fixed
 * order, so its bytes depend on nothing but its inputs. Build without
 * -ffast-math and with -ffp-contract=off, so the compiler neither reorders
 * a sum nor fuses a product into an add.
 *
 * sgd_epoch: one epoch of a multinomial logistic model's minibatch SGD steps.
 * Minibatch i holds the rows rows[i*m .. i*m + m) of X (n x d) and of the
 * one-hot labels Y (n x C); the last one may be shorter. Each step:
 *   - each logit sums x[j] * W[j][c] over j = 0..d-1 from 0.0, then adds b[c];
 *   - the softmax takes the row's max (a later entry replaces it only when
 *     it compares greater, so a NaN entry wins only in column 0), subtracts
 *     it, takes exp, sums the classes in order from 0.0 and divides;
 *   - err = (p - Y) / mb, for the minibatch's row count mb;
 *   - each gradient entry sums over the minibatch rows in row order from
 *     0.0; W[j][c] -= (g + l2 * W[j][c]) * rate and b[c] -= g_b * rate.
 * err (m x C) and grad (d x C) are scratch.
 *
 * knn_votes: the k-NN vote shares of rows query rows against n_ref
 * references, from prod = (2 x) r^T (rows x n_ref), sq = |x|^2 per row and
 * ref_sq = |r|^2 per reference. Row i's distance to reference j is
 * (sq[i] - prod[i][j]) + ref_sq[j]. The row keeps its k_max nearest
 * references ordered by (distance, reference index), NaN after every
 * number: the first k_max of a stable argsort. Model m then gets
 * count_c / k[m] over the first k[m] of those (k[m] <= k_max; 0 / 0 for
 * k[m] = 0) in row at + i of its (rows, C) output outs[m]. Every ref_y is
 * in [0, C). near (k_max doubles) and labels (k_max + C int64) are scratch.
 */
#include <math.h>
#include <stdint.h>

void sgd_epoch(const double *X, const double *Y, const int64_t *rows, int64_t n,
               int64_t d, int64_t C, int64_t m, double *W, double *b,
               double rate, double l2, double *err, double *grad)
{
    for (int64_t start = 0; start < n; start += m) {
        int64_t mb = n - start < m ? n - start : m;
        const int64_t *take = rows + start;
        for (int64_t i = 0; i < mb; i++) {
            const double *x = X + take[i] * d, *y = Y + take[i] * C;
            double *e = err + i * C, max, sum = 0.0;
            for (int64_t c = 0; c < C; c++) {
                double s = 0.0;
                for (int64_t j = 0; j < d; j++)
                    s += x[j] * W[j * C + c];
                e[c] = s + b[c];
            }
            max = e[0];
            for (int64_t c = 1; c < C; c++)
                if (e[c] > max)
                    max = e[c];
            for (int64_t c = 0; c < C; c++) {
                e[c] = exp(e[c] - max);
                sum += e[c];
            }
            for (int64_t c = 0; c < C; c++)
                e[c] = (e[c] / sum - y[c]) / (double)mb;
        }
        for (int64_t k = 0; k < d * C; k++)
            grad[k] = 0.0;
        for (int64_t i = 0; i < mb; i++) {
            const double *x = X + take[i] * d, *e = err + i * C;
            for (int64_t j = 0; j < d; j++)
                for (int64_t c = 0; c < C; c++)
                    grad[j * C + c] += x[j] * e[c];
        }
        for (int64_t k = 0; k < d * C; k++)
            W[k] -= (grad[k] + l2 * W[k]) * rate;
        for (int64_t c = 0; c < C; c++) {
            double g = 0.0;
            for (int64_t i = 0; i < mb; i++)
                g += err[i * C + c];
            b[c] -= g * rate;
        }
    }
}

/* Whether distance a sorts after distance d when a's reference comes first:
 * a is greater, or a is NaN and d is not. */
static int after(double a, double d)
{
    return a > d || (a != a && d == d);
}

void knn_votes(const double *prod, const double *sq, const double *ref_sq,
               const int64_t *ref_y, int64_t rows, int64_t n_ref, int64_t C,
               const int64_t *k, double *const *outs, int64_t n_out, int64_t at,
               double *near, int64_t *labels)
{
    int64_t k_max = 0, *count;
    for (int64_t m = 0; m < n_out; m++)
        if (k[m] > k_max)
            k_max = k[m];
    count = labels + k_max;
    for (int64_t i = 0; i < rows; i++) {
        const double *p = prod + i * n_ref;
        int64_t kept = 0;
        for (int64_t j = 0; j < n_ref; j++) {
            double d = (sq[i] - p[j]) + ref_sq[j];
            int64_t pos;
            if (kept < k_max)
                pos = kept++;
            else if (after(near[k_max - 1], d))
                pos = k_max - 1;
            else
                continue;
            for (; pos > 0 && after(near[pos - 1], d); pos--) {
                near[pos] = near[pos - 1];
                labels[pos] = labels[pos - 1];
            }
            near[pos] = d;
            labels[pos] = ref_y[j];
        }
        for (int64_t c = 0; c < C; c++)
            count[c] = 0;
        for (int64_t taken = 0; taken <= k_max; taken++) {
            for (int64_t m = 0; m < n_out; m++)
                if (k[m] == taken) {
                    double *o = outs[m] + (at + i) * C;
                    for (int64_t c = 0; c < C; c++)
                        o[c] = (double)count[c] / (double)taken;
                }
            if (taken < k_max)
                count[labels[taken]]++;
        }
    }
}
