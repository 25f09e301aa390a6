/* The compiled kernels of driftml's classifiers. Each works in a fixed
 * order, so its bytes depend on nothing but its inputs. Build without
 * -ffast-math and with -ffp-contract=off, so the compiler neither reorders
 * a sum nor fuses a product into an add.
 *
 * sgd_fit: a multinomial logistic model's minibatch SGD, all its epochs.
 * Each epoch draws its row order as numpy's Generator.permutation(n) does,
 * from the bit generator at state with its next_uint32 and next_uint64
 * (the caller holds its lock): rows = 0..n-1, then for i = n-1 down to 1 a
 * swap of rows[i] and rows[j], j = interval(i). Minibatch i holds the rows
 * rows[i*m .. i*m + m) of X (n x d) and of the class indices y; the last
 * one may be shorter. Each step copies its rows into xb (m x d), then:
 *   - each logit sums x[j] * W[j][c] over j = 0..d-1 from 0.0, then adds
 *     b[c] (four rows at a time, each its own sum);
 *   - the softmax takes the row's max (a later entry replaces it only when
 *     it compares greater, so a NaN entry wins only in column 0), subtracts
 *     it, takes exp, sums the classes in order from 0.0 and divides;
 *   - err = (p - (c == y ? 1 : 0)) / mb, for the minibatch's row count mb;
 *   - each gradient entry sums over the minibatch rows in row order from
 *     0.0 (four features at a time, each its own sum);
 *     W[j][c] -= (g + l2 * W[j][c]) * rate and b[c] -= g_b * rate.
 * Every y is in [0, C). rows (n int64) and scratch (m * (d + C) doubles:
 * xb, then the logits and err, m x C) are scratch.
 *
 * knn_votes: the k-NN vote shares of rows query rows against n_ref
 * references, from prod = (2 x) r^T (rows x n_ref), sq = |x|^2 per row and
 * ref_sq = |r|^2 per reference. Row i's distance to reference j is
 * (sq[i] - prod[i][j]) + ref_sq[j]. The row keeps its k_max nearest
 * references ordered by (distance, reference index), NaN after every
 * number: the first k_max of a stable argsort. Model m then gets
 * count_c / k[m] over the first k[m] of those (k[m] <= k_max; 0 / 0 for
 * k[m] = 0) in row at + i of its (rows, C) output outs[m]. k_max <= n_ref
 * and every ref_y is in [0, C). near (k_max doubles) and labels (k_max + C
 * int64) are scratch.
 *
 * select_rounds: greedy ensemble selection with replacement, at most
 * rounds rounds. Member m's plane is the C x G block at planes + m * C * G,
 * one row per class and one column per scoring column; column g has label
 * y[g] and weight w[g], the rows it stands for. running (C x G, zeros)
 * sums the planes picked. Round r scores every member's mix
 * (running + plane) / r, entry by entry, and picks the first member of the
 * highest score, NaN below every number (all NaN: member 0); trace and best
 * get the pick and its score. A round that scores 1.0 ends the selection,
 * else the pick's plane is added to running. Returns the rounds run.
 *   - auc == 0, accuracy: a column predicts its first max class, or its
 *     first NaN (numpy's argmax); the score is the weight of the columns
 *     whose label is predicted over the total weight, integers below 2**53.
 *     The columns go in blocks, each block through every member at once.
 *     scratch holds M + 2 G int64.
 *   - auc != 0, normalized AUC (C == 2): the class-1 entries in stable
 *     order of value, NaN after every number; a run of equal numbers of
 *     total weight W after a weight of ahead shares the rank
 *     ahead + (W + 1) / 2, and a NaN entry is a run of its own. With the
 *     weights n_pos of label 1 and n_neg of the others both above 0, the
 *     score is 2 * ((rank_sum - n_pos (n_pos + 1) / 2) / (n_pos n_neg)) - 1,
 *     rank_sum summing the label-1 weight of each run times its rank
 *     (kept doubled in an int64, exact); else NaN. scratch holds 5 G int64.
 *
 * tree_level: one depth of G decision-tree growths over P distinct pairs.
 * Pair q has the values xt[j][q] (d x P) and the counts counts[q] (C + 1:
 * its rows in its label's column and again in the last one). Growth g
 * keeps, for each feature j, its pairs in order[g][j] (G x d x P) sorted by
 * xt[j] (a stable argsort, NaN last); rule[g] holds its deepest max_depth,
 * its min_leaf and whether it takes entropy. Node i of the depth (node[i]:
 * growth, path, start, end, feature, left) holds the pairs at
 * start..end-1 of every list of its growth and the totals total[i] (C + 1).
 * A node is open when depth < max_depth, its n rows are at least
 * 2 min_leaf and no class holds all of them. For each open node and each
 * feature in order, the counts add up along the list from 0.0; the
 * position after pair k is a candidate when its value differs from the
 * next one's (!=, so NaN differs from NaN) and min_leaf <= nl <= n - min_leaf.
 * A candidate's gain is parent - (nl * I(left) + nr * I(right)) / n, the
 * right counts total - left, where I(counts of t rows) takes p = count / t
 * and sums 1 - p * p (Gini) or -(p * log2 p, 0.0 where p == 0) (entropy)
 * over the classes in numpy's order (pairwise above). A feature's first
 * best position counts; then, in feature order, a feature whose best gain
 * is above 1e-12 and above the best so far + 1e-12 takes the split. The
 * threshold is (a + b) / 2 of the two values around the position (with
 * two NaNs, b's, as numpy's scalar sum gives it). Every list of the node
 * is partitioned stably, pairs with value <= threshold first (NaN goes
 * right); the children go to child and child_total, left then right, path
 * 2 path and 2 path + 1, numbered from first_id; feature and left of every
 * node are written (-1 for a leaf) with its threshold. Returns the splits.
 * Entropy takes numpy's log2: with listing != 0 the call only lists, for
 * every open entropy node, the proportions above 0 of its totals, then of
 * each candidate's left and right counts, in class order, in props (at
 * most cap; the count is returned); the caller replaces each by its log2,
 * and the next call (listing == 0) reads them in the same order. spare
 * holds P int64.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy's random_interval: a draw in [0, max], max > 0, by masked rejection
 * (32-bit draws while max fits in them). */
static uint64_t interval(void *state, uint32_t (*next32)(void *),
                         uint64_t (*next64)(void *), uint64_t max)
{
    uint64_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffUL)
        while ((value = (next32(state) & mask)) > max)
            ;
    else
        while ((value = (next64(state) & mask)) > max)
            ;
    return value;
}

/* e[i][c] = sum_j xb[i][j] * W[j][c] + b[c] for the mb rows of xb. */
static void logits(const double *xb, int64_t mb, int64_t d, int64_t C,
                   const double *W, const double *b, double *e)
{
    int64_t i = 0;
    for (; i + 4 <= mb; i += 4) {
        const double *x0 = xb + i * d, *x1 = x0 + d, *x2 = x1 + d, *x3 = x2 + d;
        for (int64_t c = 0; c < C; c++) {
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (int64_t j = 0; j < d; j++) {
                double w = W[j * C + c];
                s0 += x0[j] * w;
                s1 += x1[j] * w;
                s2 += x2[j] * w;
                s3 += x3[j] * w;
            }
            e[i * C + c] = s0 + b[c];
            e[(i + 1) * C + c] = s1 + b[c];
            e[(i + 2) * C + c] = s2 + b[c];
            e[(i + 3) * C + c] = s3 + b[c];
        }
    }
    for (; i < mb; i++) {
        const double *x = xb + i * d;
        for (int64_t c = 0; c < C; c++) {
            double s = 0.0;
            for (int64_t j = 0; j < d; j++)
                s += x[j] * W[j * C + c];
            e[i * C + c] = s + b[c];
        }
    }
}

/* One step on the mb rows of xb, labels y[take[i]], logits in err. */
static void step(const double *xb, const int64_t *y, const int64_t *take,
                 int64_t mb, int64_t d, int64_t C, double *W, double *b,
                 double rate, double l2, double *err)
{
    for (int64_t i = 0; i < mb; i++) {
        double *e = err + i * C, max = e[0], sum = 0.0;
        for (int64_t c = 1; c < C; c++)
            if (e[c] > max)
                max = e[c];
        for (int64_t c = 0; c < C; c++) {
            e[c] = exp(e[c] - max);
            sum += e[c];
        }
        for (int64_t c = 0; c < C; c++)
            e[c] = (e[c] / sum - (c == y[take[i]] ? 1.0 : 0.0)) / (double)mb;
    }
    for (int64_t c = 0; c < C; c++) {
        int64_t j = 0;
        double g;
        for (; j + 4 <= d; j += 4) {
            double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0, *w = W + j * C + c;
            for (int64_t i = 0; i < mb; i++) {
                const double *x = xb + i * d + j;
                double e = err[i * C + c];
                g0 += x[0] * e;
                g1 += x[1] * e;
                g2 += x[2] * e;
                g3 += x[3] * e;
            }
            w[0] -= (g0 + l2 * w[0]) * rate;
            w[C] -= (g1 + l2 * w[C]) * rate;
            w[2 * C] -= (g2 + l2 * w[2 * C]) * rate;
            w[3 * C] -= (g3 + l2 * w[3 * C]) * rate;
        }
        for (; j < d; j++) {
            g = 0.0;
            for (int64_t i = 0; i < mb; i++)
                g += xb[i * d + j] * err[i * C + c];
            W[j * C + c] -= (g + l2 * W[j * C + c]) * rate;
        }
        g = 0.0;
        for (int64_t i = 0; i < mb; i++)
            g += err[i * C + c];
        b[c] -= g * rate;
    }
}

void sgd_fit(const double *X, const int64_t *y, int64_t n, int64_t d, int64_t C,
             int64_t m, int64_t epochs, double rate, double l2, void *state,
             uint32_t (*next32)(void *), uint64_t (*next64)(void *),
             double *W, double *b, int64_t *rows, double *scratch)
{
    double *xb = scratch, *err = scratch + m * d;
    for (int64_t epoch = 0; epoch < epochs; epoch++) {
        for (int64_t i = 0; i < n; i++)
            rows[i] = i;
        for (int64_t i = n - 1; i > 0; i--) {
            int64_t j = (int64_t)interval(state, next32, next64, (uint64_t)i), r = rows[i];
            rows[i] = rows[j];
            rows[j] = r;
        }
        for (int64_t start = 0; start < n; start += m) {
            int64_t mb = n - start < m ? n - start : m;
            const int64_t *take = rows + start;
            for (int64_t i = 0; i < mb; i++)
                memcpy(xb + i * d, X + take[i] * d, (size_t)d * sizeof(double));
            logits(xb, mb, d, C, W, b, err);
            step(xb, y, take, mb, d, C, W, b, rate, l2, err);
        }
    }
}

/* Whether distance a sorts after distance d when a's reference comes first:
 * a is greater, or a is NaN and d is not. */
static int after(double a, double d)
{
    return a > d || (a != a && d == d);
}

/* Puts distance d with label y at near[pos] (a free slot) and moves it
 * ahead past every kept distance that sorts after it. */
static void keep(double *near, int64_t *labels, int64_t pos, double d, int64_t y)
{
    for (; pos > 0 && after(near[pos - 1], d); pos--) {
        near[pos] = near[pos - 1];
        labels[pos] = labels[pos - 1];
    }
    near[pos] = d;
    labels[pos] = y;
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
        if (k_max > 0) {
            int64_t j = 0;
            for (; j < k_max; j++)
                keep(near, labels, j, (sq[i] - p[j]) + ref_sq[j], ref_y[j]);
            double worst = near[k_max - 1];
            for (; j < n_ref; j++) {
                double d = (sq[i] - p[j]) + ref_sq[j];
                if (after(worst, d)) {
                    keep(near, labels, k_max - 1, d, ref_y[j]);
                    worst = near[k_max - 1];
                }
            }
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

/* A sort key of an AUC entry: unsigned order is the order of the values,
 * -0.0 is 0.0 and every NaN is UINT64_MAX, after every number. */
static uint64_t rank_key(double v)
{
    uint64_t bits;
    if (v != v)
        return UINT64_MAX;
    if (v == 0.0)
        v = 0.0;
    memcpy(&bits, &v, sizeof bits);
    return bits >> 63 ? ~bits : bits | (1ULL << 63);
}

/* Sorts the n (key, value) pairs of a by key, keeping the order of equal
 * keys; b is scratch of the same size. Returns the sorted array: a or b. */
static int64_t *sort_pairs(int64_t *a, int64_t *b, int64_t n)
{
    int64_t count[8][256];
    if (n <= 64) {
        for (int64_t i = 1; i < n; i++) {
            int64_t key = a[2 * i], value = a[2 * i + 1], j = i;
            for (; j > 0 && (uint64_t)a[2 * j - 2] > (uint64_t)key; j--) {
                a[2 * j] = a[2 * j - 2];
                a[2 * j + 1] = a[2 * j - 1];
            }
            a[2 * j] = key;
            a[2 * j + 1] = value;
        }
        return a;
    }
    /* by one byte at a time, the lowest first; a byte every key shares is skipped */
    memset(count, 0, sizeof count);
    for (int64_t i = 0; i < n; i++)
        for (int byte = 0; byte < 8; byte++)
            count[byte][((uint64_t)a[2 * i] >> (8 * byte)) & 255]++;
    for (int byte = 0; byte < 8; byte++) {
        int64_t *at = count[byte], *t, start = 0;
        if (at[((uint64_t)a[0] >> (8 * byte)) & 255] == n)
            continue;
        for (int v = 0; v < 256; v++) {
            int64_t k = at[v];
            at[v] = start;
            start += k;
        }
        for (int64_t i = 0; i < n; i++) {
            int64_t to = at[((uint64_t)a[2 * i] >> (8 * byte)) & 255]++;
            b[2 * to] = a[2 * i];
            b[2 * to + 1] = a[2 * i + 1];
        }
        t = a;
        a = b;
        b = t;
    }
    return a;
}

/* The normalized AUC of the G class-1 entries of the mix (ones + p) / d.
 * wy holds 2 w + (y == 1) per column; pairs and spare (2 G int64 each) are
 * scratch. */
static double normalized_auc(const double *ones, const double *p, double d,
                             const int64_t *wy, int64_t G, int64_t n_pos,
                             int64_t n_neg, int64_t *pairs, int64_t *spare)
{
    int64_t ahead = 0, twice = 0;
    for (int64_t g = 0; g < G; g++) {
        pairs[2 * g] = (int64_t)rank_key((ones[g] + p[g]) / d);
        pairs[2 * g + 1] = wy[g];
    }
    pairs = sort_pairs(pairs, spare, G);
    for (int64_t i = 0; i < G;) {
        int64_t key = pairs[2 * i], weight = 0, pos = 0;
        do {
            int64_t t = pairs[2 * i + 1];
            weight += t >> 1;
            pos += t & 1 ? t >> 1 : 0;
            i++;
        } while (i < G && pairs[2 * i] == key && (uint64_t)key != UINT64_MAX);
        twice += pos * (2 * ahead + weight + 1);
        ahead += weight;
    }
    return 2.0 * ((twice / 2.0 - (double)(n_pos * (n_pos + 1)) / 2.0)
                  / (double)(n_pos * n_neg)) - 1.0;
}

/* Two lanes at once (SSE2 on x86-64): each lane rounds as a double does. */
typedef double pair __attribute__((vector_size(16)));
typedef int64_t pair_i __attribute__((vector_size(16)));

static pair load2(const double *p)
{
    pair v;
    memcpy(&v, p, sizeof v);
    return v;
}

static pair_i load2i(const int64_t *p)
{
    pair_i v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* The weight of the n columns whose label the two-class mix
 * (running + p) / d predicts: class 1 when class 0 is a number and class 1
 * is not at most it. w0 and w1 hold each column's weight where its label
 * is 0 and where it is 1, else 0. Rows of the planes are G apart. */
static int64_t hits2(const double *running, const double *p, double d, const int64_t *w0,
                     const int64_t *w1, int64_t G, int64_t n)
{
    const double *r1 = running + G, *p1 = p + G;
    pair dd = {d, d};
    pair_i sum = {0, 0};
    int64_t g = 0, total;
    for (; g + 2 <= n; g += 2) {
        pair v0 = (load2(running + g) + load2(p + g)) / dd;
        pair v1 = (load2(r1 + g) + load2(p1 + g)) / dd;
        pair_i one = (pair_i)(v0 == v0) & ~(pair_i)(v1 <= v0);
        sum += (one & load2i(w1 + g)) | (~one & load2i(w0 + g));
    }
    total = sum[0] + sum[1];
    for (; g < n; g++) {
        double v0 = (running[g] + p[g]) / d, v1 = (r1[g] + p1[g]) / d;
        total += v0 == v0 && !(v1 <= v0) ? w1[g] : w0[g];
    }
    return total;
}

/* hits2 for any C: a column predicts its first max class, or its first NaN. */
static int64_t hits(const double *running, const double *p, double d, const int64_t *y,
                    const int64_t *w, int64_t C, int64_t G, int64_t n)
{
    int64_t total = 0;
    for (int64_t g = 0; g < n; g++) {
        double top = (running[g] + p[g]) / d;
        int64_t label = 0;
        for (int64_t c = 1; c < C && top == top; c++) {
            double v = (running[c * G + g] + p[c * G + g]) / d;
            if (!(v <= top)) {
                top = v;
                label = c;
            }
        }
        total += label == y[g] ? w[g] : 0;
    }
    return total;
}

/* columns per pass under accuracy: the running sums and weights of a block
 * stay in cache while every member's block passes */
#define SELECT_BLOCK 512

int64_t select_rounds(const double *planes, const int64_t *y, const int64_t *w,
                      int64_t M, int64_t C, int64_t G, int64_t auc, int64_t rounds,
                      double *running, int64_t *trace, double *best, int64_t *scratch)
{
    int64_t total = 0, n_pos = 0, *tally = scratch, *w0 = scratch + M, *w1 = w0 + G;
    for (int64_t g = 0; g < G; g++) {
        total += w[g];
        n_pos += y[g] == 1 ? w[g] : 0;
        if (auc) {
            scratch[g] = 2 * w[g] + (y[g] == 1);
        } else if (C == 2) {
            w0[g] = y[g] == 0 ? w[g] : 0;
            w1[g] = y[g] == 1 ? w[g] : 0;
        }
    }
    for (int64_t r = 1; r <= rounds; r++) {
        double d = (double)r, top = 0.0, rank = 0.0;
        int64_t pick = 0;
        if (!auc) {
            for (int64_t m = 0; m < M; m++)
                tally[m] = 0;
            for (int64_t at = 0; at < G; at += SELECT_BLOCK) {
                int64_t n = G - at < SELECT_BLOCK ? G - at : SELECT_BLOCK;
                for (int64_t m = 0; m < M; m++) {
                    const double *p = planes + m * C * G + at;
                    tally[m] += C == 2 ? hits2(running + at, p, d, w0 + at, w1 + at, G, n)
                                       : hits(running + at, p, d, y + at, w + at, C, G, n);
                }
            }
        }
        for (int64_t m = 0; m < M; m++) {
            double s, k;
            if (!auc)
                s = (double)tally[m] / (double)total;
            else if (n_pos > 0 && total - n_pos > 0)
                s = normalized_auc(running + G, planes + m * C * G + G, d, scratch, G,
                                   n_pos, total - n_pos, scratch + G, scratch + 3 * G);
            else
                s = NAN;
            k = s == s ? s : -INFINITY;
            if (m == 0 || k > rank) {
                pick = m;
                top = s;
                rank = k;
            }
        }
        trace[r - 1] = pick;
        best[r - 1] = top;
        if (top == 1.0)
            return r;
        for (int64_t i = 0; i < C * G; i++)
            running[i] += planes[pick * C * G + i];
    }
    return rounds;
}

/* The sum of the n entries of a, in the order np.add.reduce takes a row of
 * a contiguous array: in turn below 8 entries; else 8 running sums, one per
 * lane of each block of 8, joined as ((r0 + r1) + (r2 + r3)) +
 * ((r4 + r5) + (r6 + r7)), then the rest in turn; above 128 entries the
 * sums of the two halves, split at a multiple of 8. */
static double pairwise(const double *a, int64_t n);

static inline double numpy_sum(const double *a, int64_t n)
{
    double s = -0.0;
    if (n >= 8)
        return pairwise(a, n);
    for (int64_t i = 0; i < n; i++)
        s += a[i];
    return s;
}

static double pairwise(const double *a, int64_t n)
{
    int64_t half;
    if (n < 8)
        return numpy_sum(a, n);
    if (n <= 128) {
        double r[8], s;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += a[i];
        return s;
    }
    half = n / 2 - n / 2 % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* The impurity of the class counts cnt of t rows: with p = cnt / t,
 * 1 - sum p * p (Gini), or -sum p * log2(p) over the p > 0, whose logs
 * come in turn from *logs (entropy); term (C doubles) is scratch. */
static double impurity(const double *cnt, double t, int64_t C, int64_t entropy,
                       const double **logs, double *term)
{
    for (int64_t c = 0; c < C; c++) {
        double p = cnt[c] / t;
        term[c] = !entropy ? p * p : cnt[c] > 0 ? p * *(*logs)++ : 0.0;
    }
    return entropy ? -(0.0 + numpy_sum(term, C)) : 1.0 - (0.0 + numpy_sum(term, C));
}

/* Lists the proportions cnt / t above 0, in class order, as props[*need..]
 * (those past cap are counted, not written). */
static void list_props(const double *cnt, double t, int64_t C, double *props, int64_t cap,
                       int64_t *need)
{
    for (int64_t c = 0; c < C; c++)
        if (cnt[c] > 0) {
            if (*need < cap)
                props[*need] = cnt[c] / t;
            ++*need;
        }
}

/* The best split of one node (feature -1: none), its position in *at; see
 * tree_level. work holds 3 (C + 1) doubles. */
static int64_t best_split(const double *xt, const double *counts, int64_t P, int64_t d,
                          int64_t C, const int64_t *order, int64_t start,
                          int64_t end, const double *tot, int64_t min_leaf, int64_t entropy,
                          int64_t listing, double *props, int64_t cap, int64_t *need,
                          const double **logs, double *work, int64_t *at)
{
    double n = tot[C], *cum = work, *rest = work + C + 1, *term = rest + C + 1;
    double parent = 0.0, bar = 1e-12;
    int64_t feature = -1;
    if (listing)
        list_props(tot, n, C, props, cap, need);
    else
        parent = impurity(tot, n, C, entropy, logs, term);
    for (int64_t f = 0; f < d; f++) {
        const int64_t *ord = order + f * P;
        const double *x = xt + f * P;
        double best = -INFINITY;
        int64_t pos = 0;
        for (int64_t c = 0; c <= C; c++)
            cum[c] = 0.0;
        for (int64_t k = start; k + 1 < end; k++) {
            int64_t q = ord[k];
            double nl, nr, left, right, gain;
            for (int64_t c = 0; c <= C; c++)
                cum[c] += counts[q * (C + 1) + c];
            nl = cum[C];
            if (!(x[q] != x[ord[k + 1]] && nl >= (double)min_leaf && nl <= n - (double)min_leaf))
                continue;
            nr = n - nl;
            for (int64_t c = 0; c < C; c++)
                rest[c] = tot[c] - cum[c];
            if (listing) {
                list_props(cum, nl, C, props, cap, need);
                list_props(rest, nr, C, props, cap, need);
                continue;
            }
            left = impurity(cum, nl, C, entropy, logs, term);
            right = impurity(rest, nr, C, entropy, logs, term);
            gain = parent - (nl * left + nr * right) / n;
            if (gain > best) {
                best = gain;
                pos = k;
            }
        }
        if (best > bar) {
            feature = f;
            bar = best + 1e-12;
            *at = pos;
        }
    }
    return feature;
}

int64_t tree_level(const double *xt, const double *counts, int64_t P, int64_t d, int64_t C,
                   const int64_t *rule, int64_t depth, int64_t n,
                   int64_t *node, const double *total, double *threshold, int64_t *order,
                   double *props, int64_t cap, int64_t listing, int64_t first_id,
                   int64_t *child, double *child_total, int64_t *spare)
{
    double work[3 * (C + 1)];
    const double *logs = props;
    int64_t need = 0, splits = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t *nd = node + 6 * i, g = nd[0], start = nd[2], end = nd[3], at = 0, f, mid = start;
        const int64_t *r = rule + 3 * g, *ord;
        const double *tot = total + i * (C + 1), *x;
        double most = 0.0, a, b, thr, *lt, *rt;
        int64_t *cl, *cr, *grown = order + g * d * P;
        for (int64_t c = 0; c < C; c++)
            if (tot[c] > most)
                most = tot[c];
        if (!listing) {
            nd[4] = nd[5] = -1;
            threshold[i] = 0.0;
        }
        if (!(depth < r[0] && tot[C] >= (double)(2 * r[1]) && most < tot[C]) || (listing && !r[2]))
            continue;
        f = best_split(xt, counts, P, d, C, grown, start, end, tot, r[1], r[2], listing,
                       props, cap, &need, &logs, work, &at);
        if (listing || f < 0)
            continue;
        ord = grown + f * P;
        x = xt + f * P;
        a = x[ord[at]];
        b = x[ord[at + 1]];
        thr = (b != b ? b : a + b) / 2.0; /* numpy's a + b: with two NaNs, b's */
        for (int64_t h = 0; h < d; h++) {
            int64_t *o = grown + h * P, m = 0;
            mid = start;
            for (int64_t k = start; k < end; k++) {
                int64_t q = o[k];
                if (x[q] <= thr)
                    o[mid++] = q;
                else
                    spare[m++] = q;
            }
            memcpy(o + mid, spare, (size_t)m * sizeof *spare);
        }
        lt = child_total + 2 * splits * (C + 1);
        rt = lt + C + 1;
        for (int64_t c = 0; c <= C; c++)
            lt[c] = 0.0;
        for (int64_t k = start; k < mid; k++)
            for (int64_t c = 0; c <= C; c++)
                lt[c] += counts[grown[k] * (C + 1) + c];
        for (int64_t c = 0; c <= C; c++)
            rt[c] = tot[c] - lt[c];
        cl = child + 12 * splits;
        cr = cl + 6;
        cl[0] = cr[0] = g;
        cl[1] = 2 * nd[1];
        cr[1] = 2 * nd[1] + 1;
        cl[2] = start;
        cl[3] = cr[2] = mid;
        cr[3] = end;
        nd[4] = f;
        nd[5] = first_id + 2 * splits++;
        threshold[i] = thr;
    }
    return listing ? need : splits;
}
