/* One epoch of a multinomial logistic model's minibatch SGD steps.
 *
 * Minibatch i holds the rows rows[i*m .. i*m + m) of X (n x d) and of the
 * one-hot labels Y (n x C); the last one may be shorter. Each step works in
 * a fixed order, so its bytes depend on nothing but the inputs:
 *   - each logit sums x[j] * W[j][c] over j = 0..d-1 from 0.0, then adds b[c];
 *   - the softmax takes the row's max (a later entry replaces it only when
 *     it compares greater, so a NaN entry wins only in column 0), subtracts
 *     it, takes exp, sums the classes in order from 0.0 and divides;
 *   - err = (p - Y) / mb, for the minibatch's row count mb;
 *   - each gradient entry sums over the minibatch rows in row order from
 *     0.0; W[j][c] -= (g + l2 * W[j][c]) * rate and b[c] -= g_b * rate.
 * err (m x C) and grad (d x C) are scratch. Build without -ffast-math and
 * with -ffp-contract=off, so the compiler neither reorders the sums nor
 * fuses a product into an add.
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
