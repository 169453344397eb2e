/* The compiled twin of search.py's three decision engines.
 *
 * bstar_branch runs one branch of a decision, node for node as _branch
 * does in Python: the same engine for the same question (the modular
 * mask engine, the integer counting engine for g != 2, the integer
 * g = 2 bitmask engine with _ruler_span), the same (gap, cap) table
 * from _bounds, the same candidates in the same order, and nodes charged
 * in the same runs against the same budget, which polls the decision's
 * stop flag at every refill as _Budget does.  So it returns the Python
 * engine's witness and nodes, and it runs out of budget at the same
 * point.  The modular canonical bans are built here as well: the triple
 * test on the third element, the coarse gcd mask of a branch with
 * second > 1, and the pair-ban table grown as the third element rises.
 *
 * Where Python copies a profile on each extension, these loops add to
 * one profile and take the additions back after the subtree; the counts
 * each candidate is tested against are the same.
 *
 * The widths are fixed, and bstar_branch answers UNFIT for a branch past
 * them, which _branch then runs in Python: k <= MAX_K, integer g = 2
 * masks of 128 bits (n <= MAX_G2_N), modular masks of 2n <= 64 *
 * MASK_WORDS bits (n <= MAX_MOD_N), integer profiles of 2n - 1 <=
 * MAX_PROFILE counts, counts in bytes as in Python's bytearrays
 * (g <= UCHAR_MAX), and node limits below MAX_LIMIT.
 *
 * A call from the interpreter's main thread with no stop flag takes
 * SIGINT for its length, unless SIGINT is ignored: Ctrl-C then ends the
 * branch at its next refill as the decision's flag does, and the call
 * returns INTERRUPTED once the interpreter's own handler is back, which
 * _corelib then runs.
 */
#define _POSIX_C_SOURCE 200809L
#include <limits.h>
#include <signal.h>
#include <stdint.h>
#include <string.h>

#define MAX_K 64
#define MAX_G2_N 128
#define MAX_MOD_N 256
#define MASK_WORDS (2 * MAX_MOD_N / 64)
#define MAX_PROFILE (2 * 4096 - 1)
#define MAX_LIMIT ((int64_t)1 << 62)

typedef uint64_t u64;
typedef unsigned __int128 u128;

/* Outcomes of a branch and of a charge: 0 is no witness or a paid charge. */
enum { NONE = 0, FOUND = 1, OVER = -1, STOPPED = -2, INTERRUPTED = -3, UNFIT = -4 };

/* _Budget: a node allowance handed out poll nodes at a time. */
typedef struct {
    int64_t left, reserve, poll;
    const volatile signed char *stop;  /* the decision's stop flag, or NULL on the main thread */
    const volatile sig_atomic_t *sigint;  /* set on Ctrl-C, or NULL where SIGINT is not taken */
} budget_t;

/* Cover the overdraft -left from the reserve; OVER past the limit, STOPPED on
 * the flag, INTERRUPTED after Ctrl-C. */
static int refill(budget_t *b)
{
    if (b->reserve < -b->left)
        return OVER;
    if (b->stop && *b->stop)
        return STOPPED;
    if (b->sigint && *b->sigint)
        return INTERRUPTED;
    int64_t take = -b->left > b->poll ? -b->left : b->poll;
    if (take > b->reserve)
        take = b->reserve;
    b->reserve -= take;
    b->left += take;
    return NONE;
}

static inline int charge(budget_t *b, int64_t count)
{
    b->left -= count;
    return b->left < 0 ? refill(b) : NONE;
}

typedef struct {
    int g, n, k, most;  /* most = g - 2: a pair fits only where r[t] <= most */
    const int *gap, *cap;
    int S[MAX_K];
    budget_t budget;
} branch_t;

/* ------------------------------------------------------------------------
 * integer counting engine (_decide_counts_int)
 * ------------------------------------------------------------------------ */

static int counts_rec(branch_t *b, unsigned char *r, int depth)
{
    if (depth == b->k)
        return FOUND;
    const int *S = b->S;
    int lo = S[depth - 1] + b->gap[depth], hi = b->cap[depth], charged = lo;
    for (int e = lo; e <= hi; e++) {
        int i = 0;
        while (i < depth && r[e + S[i]] <= b->most)
            i++;
        if (i < depth)
            continue;
        /* every sum of e fits: pay up to e, extend the profile, recurse */
        int out = charge(&b->budget, e + 1 - charged);
        if (out)
            return out;
        charged = e + 1;
        r[2 * e] += 1;
        for (i = 0; i < depth; i++)
            r[e + S[i]] += 2;
        b->S[depth] = e;
        out = counts_rec(b, r, depth + 1);
        r[2 * e] -= 1;
        for (i = 0; i < depth; i++)
            r[e + S[i]] -= 2;
        if (out)
            return out;
    }
    return hi >= charged ? charge(&b->budget, hi + 1 - charged) : NONE;
}

/* ------------------------------------------------------------------------
 * integer g = 2 bitmask engine (_decide_sidon_int, _ruler_span)
 * ------------------------------------------------------------------------ */

static inline int ctz128(u128 x)
{
    u64 low = (u64)x;
    return low ? __builtin_ctzll(low) : 64 + __builtin_ctzll((u64)(x >> 64));
}

static inline int popcount128(u128 x)
{
    return __builtin_popcountll((u64)x) + __builtin_popcountll((u64)(x >> 64));
}

/* Least span of r more marks after the last one, or room + 1 if above room. */
static int ruler_span(u128 D, int r, int room)
{
    u128 free = ~D & (((u128)2 << room) - 2);  /* bits 1..room */
    if (popcount128(free) < r * (r + 1) / 2)
        return room + 1;
    int span = 0;
    for (int i = 0; i < r; i++) {
        span += ctz128(free);
        if (span > room)
            return room + 1;
        free &= free - 1;
    }
    return span;
}

static int sidon_rec(branch_t *b, u128 D, u128 B, int depth)
{
    if (depth == b->k)
        return FOUND;
    const int *S = b->S;
    int lo = S[depth - 1] + b->gap[depth], hi = b->cap[depth];
    if (lo > hi)
        return NONE;
    int top = b->cap[b->k - 1];  /* the last element's cap */
    int rest = b->k - 1 - depth;  /* marks still to come after e */
    int end = top - ruler_span(D, rest, top - lo);
    if (end > hi)
        end = hi;
    u128 cand = ~B & (((u128)2 << end) - 1) & -((u128)1 << lo);
    int charged = lo;  /* the candidates below charged are paid for */
    while (cand) {
        int e = ctz128(cand);
        cand &= cand - 1;
        int out = charge(&b->budget, e + 1 - charged);
        if (out)
            return out;
        charged = e + 1;
        u128 new_diffs = 0;
        for (int i = 0; i < depth; i++)
            new_diffs |= (u128)1 << (e - S[i]);
        u128 D2 = D | new_diffs;
        if (ruler_span(D2, rest, top - e) > top - e)
            continue;
        u128 B2 = B | D2 << e;
        for (int i = 0; i < depth; i++)
            B2 |= new_diffs << S[i];
        b->S[depth] = e;
        out = sidon_rec(b, D2, B2, depth + 1);
        if (out)
            return out;
    }
    return hi >= charged ? charge(&b->budget, hi + 1 - charged) : NONE;
}

/* ------------------------------------------------------------------------
 * modular mask engine (_decide_modular, _third_element_bans, _pair_bans)
 *
 * A mask is W words of 64 bits, W = ceil(2n / 64), and holds Python's int
 * of the same name bit for bit up to bit 64 W; at(t) sets bits t and n + t.
 * Bits at n and above of B and ban are never read.
 * ------------------------------------------------------------------------ */

typedef struct {
    branch_t base;
    int W;
    int marks;  /* 0: no canonical bans; 1: the coarse gcd mask; 2: triple and pair bans */
    u64 coarse[MASK_WORDS];
    u64 (*bans)[MASK_WORDS];  /* bans[d], grown to every v below grown */
    int grown;
    int units[MAX_MOD_N], nunits;
} modular_t;

static inline void set_at(u64 *mask, int n, int t)
{
    mask[t >> 6] |= (u64)1 << (t & 63);
    mask[(n + t) >> 6] |= (u64)1 << ((n + t) & 63);
}

/* dst |= src >> s, over W words */
static inline void or_shr(u64 *dst, const u64 *src, int s, int W)
{
    int q = s >> 6, bit = s & 63;
    for (int i = 0; i + q < W; i++) {
        u64 w = src[i + q] >> bit;
        if (bit && i + q + 1 < W)
            w |= src[i + q + 1] << (64 - bit);
        dst[i] |= w;
    }
}

static int gcd(int a, int b)
{
    while (b) {
        int t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* x^-1 mod n for a unit x in [1, n) */
static int inverse(int x, int n)
{
    int r0 = n, r1 = x, s0 = 0, s1 = 1;
    while (r1) {
        int q = r0 / r1, t = r0 - q * r1;
        r0 = r1;
        r1 = t;
        t = s0 - q * s1;
        s0 = s1;
        s1 = t;
    }
    return s0 < 0 ? s0 + n : s0;
}

static inline int mod(int x, int n)
{
    x %= n;
    return x < 0 ? x + n : x;
}

/* _third_element_bans: the t in [2, n) for which {0, 1, t} has an affine image below it */
static void third_element_bans(int n, u64 *mask)
{
    for (int t = 2; t < n; t++) {
        const int P[6][3] = {{0, 1, t}, {0, t, 1}, {1, 0, t}, {1, t, 0}, {t, 0, 1}, {t, 1, 0}};
        for (int p = 0; p < 6; p++) {
            int a = P[p][0], diff = mod(P[p][1] - a, n);
            if (gcd(diff, n) == 1 && (long)mod(P[p][2] - a, n) * inverse(diff, n) % n < t) {
                mask[t >> 6] |= (u64)1 << (t & 63);
                break;
            }
        }
    }
}

/* _pair_bans' generator, sent t: OR in what each v in [grown, t) contributes */
static void grow_pair_bans(modular_t *m, int t)
{
    int n = m->base.n;
    for (int v = m->grown; v < t; v++)
        for (int i = 0; i < m->nunits; i++) {
            int x = m->units[i], vx = v * x % n, wx = (v - 1) * x % n;
            /* each ordered pair's offset, then the reversed pair's */
            set_at(m->bans[x], n, vx);
            set_at(m->bans[n - x], n, wx);
            set_at(m->bans[vx], n, x);
            set_at(m->bans[n - vx], n, n - wx);
            set_at(m->bans[wx], n, n - x);
            set_at(m->bans[n - wx], n, n - vx);
        }
    m->grown = t;
}

/* mark: ban2, the bans after e joins the depth elements placed */
static void mark(modular_t *m, int e, int depth, const u64 *ban, u64 *ban2)
{
    int n = m->base.n, W = m->W;
    const int *S = m->base.S;
    if (m->marks == 1) {
        memcpy(ban2, ban, W * sizeof(u64));
        or_shr(ban2, m->coarse, n - e, W);
        return;
    }
    if (depth == 1) {  /* the triple test still bans the third element */
        memcpy(ban2, ban, W * sizeof(u64));
        return;
    }
    if (depth == 2) {  /* t = e: the earlier t's subtrees are done, so grow to e */
        grow_pair_bans(m, e);
        memset(ban2, 0, W * sizeof(u64));
        or_shr(ban2, m->bans[1], n, W);
    } else {
        memcpy(ban2, ban, W * sizeof(u64));
    }
    for (int i = 0; i < depth; i++)
        or_shr(ban2, m->bans[e - S[i]], n - S[i], W);
}

static int modular_rec(modular_t *m, unsigned char *r, const u64 *sat, const u64 *B,
                       const u64 *ban, int depth)
{
    branch_t *b = &m->base;
    if (depth == b->k)
        return FOUND;
    const int *S = b->S;
    int n = b->n, W = m->W;
    int lo = S[depth - 1] + b->gap[depth], hi = b->cap[depth];
    if (lo > hi)
        return NONE;
    int charged = lo;  /* the candidates below charged are paid for */
    u64 sat2[MASK_WORDS], B2[MASK_WORDS], ban2[MASK_WORDS], fresh[MASK_WORDS];
    int t[MAX_K];
    for (int w = lo >> 6; w <= hi >> 6; w++) {
        u64 cand = ~(B[w] | ban[w]);
        if (w == lo >> 6)
            cand &= ~(u64)0 << (lo & 63);
        if (w == hi >> 6)
            cand &= ~(u64)0 >> (63 - (hi & 63));
        while (cand) {
            int e = 64 * w + __builtin_ctzll(cand);
            cand &= cand - 1;
            int d = 2 * e >= n ? 2 * e - n : 2 * e;
            if (r[d] >= b->g)
                continue;
            /* every sum of e fits: pay up to e, extend the masks, recurse */
            int out = charge(&b->budget, e + 1 - charged);
            if (out)
                return out;
            charged = e + 1;
            memset(fresh, 0, W * sizeof(u64));
            int any = 0;
            r[d] += 1;
            if (r[d] > b->most) {
                set_at(fresh, n, d);
                any = 1;
            }
            for (int i = 0; i < depth; i++) {
                t[i] = e + S[i] >= n ? e + S[i] - n : e + S[i];
                r[t[i]] += 2;
                if (r[t[i]] > b->most) {
                    set_at(fresh, n, t[i]);
                    any = 1;
                }
            }
            for (int i = 0; i < W; i++) {
                sat2[i] = sat[i] | fresh[i];
                B2[i] = B[i];
            }
            or_shr(B2, sat2, e, W);
            if (any)
                for (int i = 0; i < depth; i++)
                    or_shr(B2, fresh, S[i], W);
            if (m->marks)
                mark(m, e, depth, ban, ban2);
            b->S[depth] = e;
            out = modular_rec(m, r, sat2, B2, m->marks ? ban2 : ban, depth + 1);
            r[d] -= 1;
            for (int i = 0; i < depth; i++)
                r[t[i]] -= 2;
            if (out)
                return out;
        }
    }
    return hi >= charged ? charge(&b->budget, hi + 1 - charged) : NONE;
}

static int decide_modular(modular_t *m, int second, int canonical)
{
    int n = m->base.n, W = m->W = (2 * n + 63) / 64;
    u64 ban[MASK_WORDS] = {0}, sat[MASK_WORDS] = {0};
    u64 bans[MAX_MOD_N][MASK_WORDS];
    unsigned char r[MAX_MOD_N] = {0};
    m->marks = 0;
    if (canonical && second > 1) {
        m->marks = 1;
        memset(m->coarse, 0, sizeof m->coarse);
        for (int o = 1; o < n; o++)
            if (gcd(o, n) < second)
                set_at(m->coarse, n, o);
        or_shr(ban, m->coarse, n, W);  /* mark(None, 0, 0) */
    } else if (canonical) {
        m->marks = 2;
        memset(bans, 0, n * sizeof bans[0]);
        m->bans = bans;
        m->grown = 2;
        m->nunits = 0;
        for (int x = 1; x < n; x++)
            if (gcd(x, n) == 1)
                m->units[m->nunits++] = x;
        third_element_bans(n, ban);
    }
    r[0] = 1;
    if (1 > m->base.most)
        set_at(sat, n, 0);
    return modular_rec(m, r, sat, sat, ban, 1);  /* B = sat >> 0 for S = [0] */
}

/* ------------------------------------------------------------------------
 * one branch (_branch)
 * ------------------------------------------------------------------------ */

static volatile sig_atomic_t sigint_seen;

static void on_sigint(int signum)
{
    (void)signum;
    sigint_seen = 1;
}

static int fits(int modular, int g, int n, int k, int64_t limit)
{
    if (k > MAX_K || g > UCHAR_MAX || limit >= MAX_LIMIT)
        return 0;
    if (modular)
        return n <= MAX_MOD_N;
    return g == 2 ? n <= MAX_G2_N : n <= (MAX_PROFILE + 1) / 2;
}

/* Run one branch; FOUND with the witness in witness[0..k), NONE, OVER,
 * STOPPED, INTERRUPTED (where interruptible) or UNFIT.  *nodes is what the
 * branch charged, as limit - left - reserve. */
int bstar_branch(int modular, int g, int n, int k, const int *gap, const int *cap,
                 int second, int canonical, int64_t limit, const volatile signed char *stop,
                 int64_t poll, int interruptible, int *witness, int64_t *nodes)
{
    if (!fits(modular, g, n, k, limit))
        return UNFIT;
    struct sigaction ours = {.sa_handler = on_sigint}, theirs;
    int take_sigint = 0;
    if (interruptible) {
        sigint_seen = 0;
        sigemptyset(&ours.sa_mask);
        take_sigint = sigaction(SIGINT, &ours, &theirs) == 0;
        if (take_sigint && theirs.sa_handler == SIG_IGN) {  /* an ignored SIGINT stays so */
            sigaction(SIGINT, &theirs, NULL);
            take_sigint = 0;
        }
    }
    modular_t m;
    branch_t *b = &m.base;
    b->g = g;
    b->n = n;
    b->k = k;
    b->most = g - 2;
    b->gap = gap;
    b->cap = cap;
    b->S[0] = 0;
    b->budget = (budget_t){0, limit, poll, stop, take_sigint ? &sigint_seen : NULL};
    int out;
    if (modular) {
        out = decide_modular(&m, second, canonical);
    } else if (g == 2) {
        out = sidon_rec(b, 0, 0, 1);
    } else {
        unsigned char r[MAX_PROFILE] = {0};
        r[0] = 1;
        out = counts_rec(b, r, 1);
    }
    if (take_sigint) {  /* a Ctrl-C that came before theirs was back is theirs to handle */
        sigaction(SIGINT, &theirs, NULL);
        if (sigint_seen)
            out = INTERRUPTED;
    }
    *nodes = limit - b->budget.left - b->budget.reserve;
    if (out == FOUND)
        memcpy(witness, b->S, k * sizeof(int));
    return out;
}
