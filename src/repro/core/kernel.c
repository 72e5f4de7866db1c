/*
 * Native kernel: enumeration, DEBI maintenance and work decomposition for
 * stock match definitions, and the graph's batch mutations (at the end).
 *
 * One call runs every work unit of one (query, batch phase) through the
 * depth-first join of the paper's Figure 4 (tests/reference/tuple_kernel.py)
 * over DynamicGraph's own arrays: a unit is pinned, then extended one
 * matching-order step and one candidate at a time, so rows leave in the
 * reference's order and candidates_scanned is charged as it charges.
 * Vertices are positions (the graph's interning rank) throughout; a raw id
 * is read only to emit a row and to test the DEBI root bit.
 *
 * A step's candidates at an anchor -- and with them the f2/f3 rule, once per
 * (query node, vertex) -- are decided on the first visit and kept for the
 * call; a row-at-a-time walk would otherwise repeat them for every partial
 * embedding.  Memory follows the work, not |V|: the memos are hash tables
 * sized from the unit and batch counts that grow as they fill.  The pools
 * fetched are reported as (charge key, anchor, raw size) for the caller to
 * charge through the memo the numpy kernel uses.
 *
 * A count-only call walks no row it would discard at the end: the last (at
 * most three) steps of an order that verify no edge and anchor no later step
 * draw from pools their already bound anchors fix, so their completions are
 * counted from the pools (count_tail).  A pool is still fetched, and charged,
 * exactly when the walk would first have visited it.
 *
 * DEBI maintenance (mn_filter_insert / mn_filter_delete) and work
 * decomposition (mn_decompose) are IndexManager.handle_insert_columns /
 * handle_deletions and decompose_batch of the numpy code on the same arrays:
 * the same columns deepest first, frontier slots that are sets, the same
 * traversal count.  Bits are written in place; root bits stay Python's, so
 * the calls return the raw ids whose root bit flips.
 *
 * repro/core/native.py writes env (graph and DEBI arrays), plan (the encoded
 * query, or its index plan) and the graph block; keep them in step.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;

/* A wildcard query label; as a pool or degree label, every partition. */
#define ANY (-1)
/* Directory keys pack (position, label) as position * SPAN + label + BIAS. */
#define LABEL_SPAN ((i64)1 << 32)
#define LABEL_BIAS ((i64)1 << 31)
#define PTR(value) ((const void *)(intptr_t)(value))

/* A growable int64 array; the caller frees what a call leaves in it. */
typedef struct {
    i64 *data, len, cap;
} Buf;

/* One direction of the adjacency (_Adjacency): the sorted directory of packed
 * keys (a sentinel key last), the partition rows, and each edge's partition. */
typedef struct {
    const i64 *keys, *parts, *start, *size, *arena, *vertex_pos, *part_of;
    i64 nkeys;
} Side;

/* Open addressing over key + 1 (0 marks a free slot); a value of 0 is absent. */
typedef struct {
    u64 *keys;
    i64 *vals, mask, used;
} Map;

typedef struct {
    Side out, in;
    const i64 *edge_label, *vertex_label, *vertex_ids;
    u64 *debi;
    const u64 *roots;
    i64 debi_rows, root_bits;
    /* the query, and the edge slots of the current order's rows */
    const i64 *plan, *node_label, *qedge, *deg_at, *slots;
    i64 n_nodes, root, injective, degree_filter, nslots;
    /* the partial embedding: vertex position per query node (-1 unbound),
     * data edge per query edge, and the bound edges in binding order */
    i64 *vpos, *eid, *used, nused, *row;
    Map batch, degree, charged, pool_at;
    Buf *rows, *charges, parts, pools;
    i64 count, scanned;
    /* count-only: the current order's first counted step, or NULL */
    const i64 *tail;
    int collect, failed, overflow;
    /* DEBI maintenance: the tree edges (index plan), a set per frontier slot
     * and the membership of all of them */
    const i64 *te;
    i64 n_te;
    Buf *sets;
    Map seen;
} Kernel;

static int push(Buf *buf, const i64 *values, i64 n)
{
    if (n == 0)
        return 0;
    if (buf->len + n > buf->cap) {
        i64 cap = buf->cap ? buf->cap : 256;
        while (cap < buf->len + n)
            cap *= 2;
        i64 *data = realloc(buf->data, (size_t)cap * sizeof *data);
        if (!data)
            return -1;
        buf->data = data, buf->cap = cap;
    }
    memcpy(buf->data + buf->len, values, (size_t)n * sizeof *values);
    buf->len += n;
    return 0;
}

void mn_free(Buf *buf)
{
    free(buf->data);
    buf->data = NULL, buf->len = buf->cap = 0;
}

static int map_init(Map *map, i64 expected)
{
    i64 cap = 64;
    while (cap < 2 * expected)
        cap *= 2;
    map->keys = calloc((size_t)cap, sizeof *map->keys);
    map->vals = calloc((size_t)cap, sizeof *map->vals);
    map->mask = cap - 1, map->used = 0;
    return map->keys && map->vals ? 0 : -1;
}

static void map_free(Map *map)
{
    free(map->keys);
    free(map->vals);
}

/* The slot holding key, or the free slot where it would go. */
static i64 map_slot(const Map *map, u64 key)
{
    u64 stored = key + 1, hash = (stored ^ (stored >> 32)) * 0x9E3779B97F4A7C15ULL;
    i64 at = (i64)(hash ^ (hash >> 29)) & map->mask;
    while (map->keys[at] && map->keys[at] != stored)
        at = (at + 1) & map->mask;
    return at;
}

static i64 map_get(const Map *map, u64 key)
{
    i64 at = map_slot(map, key);
    return map->keys[at] ? map->vals[at] : 0;
}

/* Store a non-zero value under key, growing at half full; -1 when out of memory. */
static int map_put(Map *map, u64 key, i64 value)
{
    if (2 * (map->used + 1) > map->mask + 1) {
        Map grown;
        if (map_init(&grown, map->mask + 1)) {
            map_free(&grown);
            return -1;
        }
        for (i64 at = 0, to; at <= map->mask; at++)
            if (map->keys[at])
                to = map_slot(&grown, map->keys[at] - 1), grown.keys[to] = map->keys[at],
                grown.vals[to] = map->vals[at];
        grown.used = map->used;
        map_free(map);
        *map = grown;
    }
    i64 at = map_slot(map, key);
    map->used += !map->keys[at];
    map->keys[at] = key + 1;
    map->vals[at] = value;
    return 0;
}

/* Index of the first of keys[0..n) >= key, or n; n >= 1.  Branch-free: the
 * comparison of a random lookup is a coin toss a branch would mispredict. */
static i64 lower_bound(const i64 *keys, i64 n, i64 key)
{
    const i64 *base = keys;
    for (; n > 1; n -= n / 2)
        base += (base[n / 2 - 1] < key) * (n / 2);
    return (base - keys) + (*base < key);
}

/* The directory entries of a vertex: one per label it has edges of. */
#define FOR_LABELS(at, side, pos) \
    for (i64 at = lower_bound((side)->keys, (side)->nkeys, (pos) * LABEL_SPAN); \
         (side)->keys[at] < ((pos) + 1) * LABEL_SPAN; at++)

static i64 partition(const Side *side, i64 pos, i64 label)
{
    if (label < -LABEL_BIAS || label >= LABEL_BIAS)
        return -1;
    i64 key = pos * LABEL_SPAN + label + LABEL_BIAS, at = lower_bound(side->keys, side->nkeys, key);
    return side->keys[at] == key ? side->parts[at] : -1;
}

/* Live edges in the pool of (position, label); ANY counts every label. */
static i64 degree(const Side *side, i64 pos, i64 label)
{
    i64 total = 0, part = label == ANY ? -1 : partition(side, pos, label);
    if (label != ANY)
        return part < 0 ? 0 : side->size[part];
    FOR_LABELS(at, side, pos)
        total += side->size[side->parts[at]];
    return total;
}

/* The position of an edge's endpoint on a side: its source on out, target on in. */
static i64 end_pos(const Side *side, i64 e)
{
    return side->vertex_pos[side->part_of[e]];
}

static int debi_bit(const Kernel *k, i64 e, i64 column)
{
    return e < k->debi_rows && ((k->debi[e] >> column) & 1);
}

/* The root bit of the vertex at pos (kept by raw vertex id). */
static int root_bit(const Kernel *k, i64 pos)
{
    i64 id = k->vertex_ids[pos];
    return id < k->root_bits && ((k->roots[id >> 6] >> (id & 63)) & 1);
}

/* The stock edge matcher: data edge e from position a to b against the query
 * edge (source, target, label) at qe. */
static int labels_ok(const Kernel *k, const i64 *qe, i64 e, i64 a, i64 b)
{
    i64 src = k->node_label[qe[0]], dst = k->node_label[qe[1]];
    return (src == ANY || src == k->vertex_label[a]) && (dst == ANY || dst == k->vertex_label[b])
        && (qe[2] == ANY || qe[2] == k->edge_label[e]);
}

/* Fill k->parts with the partitions of a pool in creation order, which is
 * ascending partition id; -1 when out of memory. */
static int fill_parts(Kernel *k, const Side *side, i64 pos, i64 label)
{
    if (label != ANY) {
        i64 part = partition(side, pos, label);
        return part < 0 ? 0 : push(&k->parts, &part, 1);
    }
    FOR_LABELS(at, side, pos)
        if (push(&k->parts, &side->parts[at], 1))
            return -1;
    i64 *parts = k->parts.data, swap;
    for (i64 i = 1; i < k->parts.len; i++)
        for (i64 j = i; j > 0 && parts[j - 1] > parts[j]; j--)
            swap = parts[j], parts[j] = parts[j - 1], parts[j - 1] = swap;
    return 0;
}

/* The f2/f3 rule, memoised: may the vertex at pos bind query node `node`? */
static int degree_ok(Kernel *k, i64 node, i64 pos)
{
    u64 key = (u64)node << 48 | (u64)pos;
    i64 known = k->degree_filter ? map_get(&k->degree, key) : 1;
    if (known)
        return known == 1;
    const i64 *rule = k->plan + k->deg_at[node];
    int ok = 1;
    for (i64 r = 0; r < rule[0] && ok; r++)
        ok = degree(rule[1 + 3 * r] ? &k->out : &k->in, pos, rule[2 + 3 * r]) >= rule[3 + 3 * r];
    if (map_put(&k->degree, key, ok ? 1 : 2))
        k->failed = 1;
    return ok;
}

/* May data edge e (from position a to b) witness query edge q?  The stock
 * edge matcher, the batch mask and, with check_used, edge injectivity. */
static int usable(const Kernel *k, i64 q, i64 e, i64 a, i64 b, int masked, int check_used)
{
    if ((masked && map_get(&k->batch, (u64)e)) || !labels_ok(k, k->qedge + 3 * q, e, a, b))
        return 0;
    for (i64 i = 0; check_used && i < k->nused; i++)
        if (k->used[i] == e)
            return 0;
    return 1;
}

/* The data edges from position a to position b, read in ascending id order
 * up to the first witness of query edge q: returns that witness or -1, and
 * stores in *seen how many edges the reading costs (through the witness, or
 * all of them).  The edges are found from the smaller of a's out-pool and
 * b's in-pool. */
static i64 witness(const Kernel *k, i64 q, i64 a, i64 b, int masked, int check_used, i64 *seen)
{
    int from_src = degree(&k->out, a, ANY) <= degree(&k->in, b, ANY);
    const Side *side = from_src ? &k->out : &k->in, *other = from_src ? &k->in : &k->out;
    i64 pos = from_src ? a : b, want = from_src ? b : a, first = -1, between = 0;
    *seen = 0;
    for (int pass = 0; pass < 2; pass++) {
        FOR_LABELS(at, side, pos) {
            const i64 *edge = side->arena + side->start[side->parts[at]];
            for (const i64 *end = edge + side->size[side->parts[at]]; edge < end; edge++) {
                if (end_pos(other, *edge) != want)
                    continue;
                if (pass) {
                    *seen += *edge <= first;
                    continue;
                }
                between++;
                if ((first < 0 || *edge < first) && usable(k, q, *edge, a, b, masked, check_used))
                    first = *edge;
            }
        }
        if (first < 0 || between == 1) {
            *seen = between;
            break;
        }
    }
    return first;
}

/* Check the query edges of `verify` ((edge, masked) pairs) on the bound
 * vertices, charging the witness reads; 0 at the first one with no witness. */
static int verified(Kernel *k, const i64 *verify, i64 n)
{
    for (i64 i = 0; i < n; i++) {
        const i64 *qe = k->qedge + 3 * verify[2 * i];
        i64 seen, found = witness(k, verify[2 * i], k->vpos[qe[0]], k->vpos[qe[1]],
                                  (int)verify[2 * i + 1], (int)k->injective, &seen);
        k->scanned += seen;
        if (found < 0)
            return 0;
    }
    return 1;
}

static int bound(const Kernel *k, i64 pos)
{
    for (i64 u = 0; u < k->n_nodes; u++)
        if (k->vpos[u] == pos)
            return 1;
    return 0;
}

static int ascending(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* The candidates of a step at an anchor position, fetched and charged on the
 * first visit and kept for the rest of the call: every pool entry that passes
 * the DEBI bit, the batch mask, the root bit and the f2/f3 rule, as (edge,
 * vertex position) pairs after their count -- for a counted step, as their
 * vertices ascending under isomorphism and the count alone otherwise.
 * Returns the offset of the count in k->pools, or -1 when out of memory. */
static i64 candidates(Kernel *k, const i64 *step, i64 anchor)
{
    u64 key = (u64)(step - k->plan) << 40 | (u64)anchor;
    i64 at = map_get(&k->pool_at, key) - 1, size = 0, none = 0;
    if (at >= 0)
        return at;
    i64 node = step[0], column = step[4], masked = step[6];
    int counted = k->tail && step >= k->tail;
    const Side *side = step[3] ? &k->out : &k->in, *other = step[3] ? &k->in : &k->out;
    at = k->pools.len;
    if (fill_parts(k, side, anchor, step[5]) || push(&k->pools, &none, 1))
        return -1;
    for (i64 j = 0; j < k->parts.len; j++) {
        i64 part = k->parts.data[j];
        size += side->size[part];
        for (i64 i = side->start[part], end = i + side->size[part]; i < end; i++) {
            i64 e = side->arena[i], v = end_pos(other, e), pair[2] = {e, v};
            if ((column >= 0 && !debi_bit(k, e, column)) || (masked && map_get(&k->batch, (u64)e))
                || (node == k->root && !root_bit(k, v)) || !degree_ok(k, node, v))
                continue;
            if (counted ? k->injective && push(&k->pools, &v, 1) : push(&k->pools, pair, 2))
                return -1;
            k->pools.data[at]++;
        }
    }
    if (counted && k->injective)
        qsort(k->pools.data + at + 1, (size_t)k->pools.data[at], sizeof(i64), ascending);
    k->parts.len = 0;
    /* a pool is charged once per (charge key, anchor) */
    u64 charge = (u64)step[7] << 48 | (u64)anchor;
    i64 triple[3] = {step[7], k->vertex_ids[anchor], size};
    if (!map_get(&k->charged, charge)
        && (map_put(&k->charged, charge, 1) || push(k->charges, triple, 3)))
        return -1;
    return k->failed || map_put(&k->pool_at, key, at + 1) ? -1 : at;
}

/* Entries of a sorted vertex column whose vertex is bound. */
static i64 on_bound(const Kernel *k, const i64 *col, i64 len)
{
    i64 total = 0;
    for (i64 u = 0; len && u < k->n_nodes; u++)
        if (k->vpos[u] >= 0)
            total += lower_bound(col, len, k->vpos[u] + 1) - lower_bound(col, len, k->vpos[u]);
    return total;
}

/* Over the unbound vertices in every sorted column that `mask` selects: the
 * sum of the products of their multiplicities.  Linear in the columns. */
static i64 shared(const Kernel *k, const i64 *const *col, const i64 *len, int mask)
{
    const i64 *at[3], *end[3];
    i64 m = 0, total = 0;
    for (int c = 0; c < 3; c++)
        if (mask >> c & 1)
            at[m] = col[c], end[m++] = col[c] + len[c];
    for (i64 v = INT64_MIN;;) {
        int equal = 1;
        for (i64 c = 0; c < m; c++) {
            while (at[c] < end[c] && *at[c] < v)
                at[c]++;
            if (at[c] == end[c])
                return total;
            equal &= *at[c] == v;
            v = *at[c];
        }
        if (!equal)
            continue;
        i64 product = 1, skip = bound(k, v);
        for (i64 c = 0; c < m; c++) {
            const i64 *from = at[c];
            while (at[c] < end[c] && *at[c] == v)
                at[c]++;
            product *= skip ? 1 : at[c] - from;
        }
        total += skip ? 0 : product;
    }
}

/* Count-only: add the completions of the `left` (<= 3) steps from `step`, the
 * order's counted tail.  Each draws from the pool its bound anchor fixes, so
 * under homomorphism they are the product of the pool sizes; under
 * isomorphism the tuples of distinct unbound vertices, by inclusion-exclusion
 * over vertex collisions: n0 n1 - c01 for two pools and n0 n1 n2 - c01 n2 -
 * c02 n1 - c12 n0 + 2 c012 for three (c: entry pairs or triples on one
 * vertex, which parallel edges make multiplicities).  Pool j + 1 is fetched
 * only when pools 0..j complete, exactly when the walk would first visit it.
 * Every term is at most the product of the sizes, so a product past half of
 * int64 is refused as an overflow. */
static void count_tail(Kernel *k, const i64 *step, i64 left)
{
    i64 at[3], len[3], n[3], product = 1, total = 0, c01 = 0;
    const i64 *col[3];
    for (i64 j = 0; j < left; j++, step += 9) {
        at[j] = candidates(k, step, k->vpos[step[1]]);
        if (at[j] < 0) {
            k->failed = 1;
            return;
        }
        for (i64 i = 0; i <= j; i++)  /* the fetch may have moved the pools */
            col[i] = k->pools.data + at[i] + 1, len[i] = col[i][-1];
        n[j] = len[j] - (k->injective ? on_bound(k, col[j], len[j]) : 0);
        if (__builtin_mul_overflow(product, n[j], &product) || product > INT64_MAX / 2) {
            k->failed = k->overflow = 1;
            return;
        }
        if (!k->injective || j == 0)
            total = product;
        else if (j == 1)
            total = product - (c01 = shared(k, col, len, 3));
        else
            total = product - c01 * n[2] - shared(k, col, len, 5) * n[1]
                - shared(k, col, len, 6) * n[0] + 2 * shared(k, col, len, 7);
        if (total == 0)
            return;
    }
    if (__builtin_add_overflow(k->count, total, &k->count))
        k->failed = k->overflow = 1;
}

/* The first of the steps of an order a count-only call counts instead of
 * walking, or NULL for none: at most the last three, none verifying an edge or
 * anchoring a later step. */
static const i64 *countable(const i64 *steps, i64 n)
{
    const i64 *last[3] = {NULL, NULL, NULL};
    i64 t = 0;
    for (i64 s = 0; s < n; s++, steps += 9 + 2 * steps[8])
        last[0] = last[1], last[1] = last[2], last[2] = steps;
    for (; t < 3 && t < n && !last[2 - t][8]; t++) {
        int anchors = 0;
        for (i64 later = 3 - t; later < 3; later++)
            anchors |= last[later][1] == last[2 - t][0];
        if (anchors)
            break;
    }
    return t ? last[3 - t] : NULL;
}

/* Run `left` matching-order steps from `step` on the bound embedding.  A step
 * is: node, anchor, tree edge, anchor is source, DEBI column (-1 none), pool
 * label (ANY: every partition), tree edge masked, charge key, then its
 * verification edges as a count and (edge, masked) pairs. */
static void extend(Kernel *k, const i64 *step, i64 left)
{
    if (left == 0) {  /* emit */
        for (i64 u = 0; k->collect && u < k->n_nodes; u++)
            k->row[u] = k->vertex_ids[k->vpos[u]];
        for (i64 j = 0; k->collect && j < k->nslots; j++)
            k->row[k->n_nodes + j] = k->eid[k->slots[j]];
        k->count++;
        k->failed |= k->collect && push(k->rows, k->row, k->n_nodes + k->nslots);
        return;
    }
    if (step == k->tail) {
        count_tail(k, step, left);
        return;
    }
    i64 node = step[0], nverify = step[8], at = candidates(k, step, k->vpos[step[1]]);
    const i64 *verify = step + 9, *next = verify + 2 * nverify;
    k->failed |= at < 0;
    for (i64 i = 0, n = at < 0 ? 0 : k->pools.data[at]; i < n && !k->failed; i++) {
        /* deeper steps may move the pools: index them afresh */
        i64 e = k->pools.data[at + 1 + 2 * i], v = k->pools.data[at + 2 + 2 * i];
        if (k->injective && bound(k, v))
            continue;
        k->vpos[node] = v;
        k->eid[step[2]] = e;
        k->used[k->nused++] = e;
        if (verified(k, verify, nverify))
            extend(k, next, left - 1);
        k->nused--;
        k->vpos[node] = -1;
    }
}

static void side_at(Side *s, const i64 *env)
{
    s->keys = PTR(env[0]), s->parts = PTR(env[1]), s->nkeys = env[2], s->start = PTR(env[3]);
    s->size = PTR(env[4]), s->arena = PTR(env[5]), s->vertex_pos = PTR(env[6]);
    s->part_of = PTR(env[7]);
}

/* A fresh kernel over env: both sides, the edge and vertex columns, the DEBI
 * rows (readable below env[20]) and root words. */
static void env_at(Kernel *k, const i64 *env)
{
    memset(k, 0, sizeof *k);
    side_at(&k->out, env);
    side_at(&k->in, env + 8);
    k->edge_label = PTR(env[16]), k->vertex_label = PTR(env[17]), k->vertex_ids = PTR(env[18]);
    k->debi = (u64 *)(intptr_t)env[19], k->debi_rows = env[20], k->roots = PTR(env[21]);
    k->root_bits = env[22];
}

/* Enumerate the units (unit_edges[i] pinned onto query edge unit_starts[i]),
 * grouped by start edge in order of first appearance, each group in unit
 * order.  Fills totals with (embeddings, witness reads, groups) and groups
 * with (start edge, rows, offset of its first row in rows) per group that has
 * rows; with collect, rows gets every embedding as its vertices (query nodes
 * ascending) then its bound edges (query edges ascending).  Returns 0, -1
 * when memory ran out, or -2 when a count-only total would overflow int64. */
int mn_enumerate(const i64 *env, const i64 *plan, const i64 *unit_edges, const i64 *unit_starts,
                 i64 n_units, int collect, i64 *groups, i64 *totals, Buf *rows, Buf *charges)
{
    Kernel k;
    env_at(&k, env);
    const i64 *batch = PTR(env[23]);
    i64 n_batch = env[24], n_nodes = plan[0], n_edges = plan[1], n_groups = 0;
    k.plan = plan, k.n_nodes = n_nodes, k.root = plan[2], k.injective = plan[3];
    k.degree_filter = plan[4], k.node_label = plan + 5, k.qedge = k.node_label + n_nodes;
    k.deg_at = k.qedge + 3 * n_edges;
    const i64 *order_at = k.deg_at + n_nodes;
    k.rows = rows, k.charges = charges, k.collect = collect;
    k.vpos = malloc((size_t)n_nodes * sizeof(i64));
    k.eid = malloc((size_t)n_edges * sizeof(i64));
    k.used = malloc((size_t)(n_edges + 1) * sizeof(i64));
    k.row = malloc((size_t)(n_nodes + n_edges) * sizeof(i64));
    unsigned char *grouped = calloc((size_t)n_edges, 1);
    k.failed = !k.vpos || !k.eid || !k.used || !k.row || !grouped;
    k.failed |= map_init(&k.batch, n_batch) | map_init(&k.degree, n_units)
        | map_init(&k.charged, n_units) | map_init(&k.pool_at, n_units);
    for (i64 i = 0; i < n_batch && !k.failed; i++)
        k.failed = map_put(&k.batch, (u64)batch[i], 1);
    for (i64 u = 0; u < n_nodes && !k.failed; u++)
        k.vpos[u] = -1;
    for (i64 i = 0; i < n_units && !k.failed; i++) {
        i64 start = unit_starts[i];
        if (grouped[start])
            continue;
        grouped[start] = 1;
        /* order: src, dst, no old witness, bound edge slots (count, ids),
         * start verification edges (count, pairs), steps (count, steps) */
        const i64 *order = plan + order_at[start];
        i64 src = order[0], dst = order[1], no_old = order[2], before = k.count;
        k.nslots = order[3], k.slots = order + 4;
        i64 nverify = k.slots[k.nslots];
        const i64 *verify = k.slots + k.nslots + 1, *steps = verify + 2 * nverify + 1;
        k.tail = collect ? NULL : countable(steps, steps[-1]);
        groups[3 * n_groups] = start;
        groups[3 * n_groups + 2] = rows->len;
        for (i64 u = i; u < n_units && !k.failed; u++) {
            i64 e = unit_edges[u], seen;
            i64 a = end_pos(&k.out, e), b = end_pos(&k.in, e);
            if (unit_starts[u] != start || (src == dst ? a != b : (k.injective && a == b)))
                continue;
            /* a non-tree start whose constraint held before the batch maps no new nodes */
            if ((no_old && witness(&k, start, a, b, 1, 0, &seen) >= 0)
                || !degree_ok(&k, src, a) || !degree_ok(&k, dst, b))
                continue;
            k.vpos[src] = a, k.vpos[dst] = b, k.eid[start] = e, k.used[0] = e, k.nused = 1;
            if (verified(&k, verify, nverify))
                extend(&k, steps, steps[-1]);
            k.vpos[src] = k.vpos[dst] = -1;
        }
        groups[3 * n_groups + 1] = k.count - before;
        n_groups += k.count > before;
    }
    totals[0] = k.count, totals[1] = k.scanned, totals[2] = n_groups;
    map_free(&k.batch), map_free(&k.degree), map_free(&k.charged), map_free(&k.pool_at);
    mn_free(&k.parts), mn_free(&k.pools);
    free(grouped), free(k.row), free(k.used), free(k.eid), free(k.vpos);
    return k.overflow ? -2 : k.failed ? -1 : 0;
}

/* ---------------------------------------------------------------- DEBI maintenance */

/* An index plan: node count, query edge count, root, tree edge count, the node
 * labels, per query edge (source, target, label, DEBI column or -1), then per
 * tree edge, deepest child first, (query edge, child, parent, child is source,
 * DEBI column, pool label). */
static void plan_at(Kernel *k, const i64 *plan)
{
    k->n_nodes = plan[0], k->root = plan[2], k->n_te = plan[3];
    k->node_label = plan + 4, k->qedge = k->node_label + plan[0], k->te = k->qedge + 4 * plan[1];
}

/* Copy the pool of (pos, label) on side into out; -1 when out of memory. */
static int pool_into(Kernel *k, const Side *side, i64 pos, i64 label, Buf *out)
{
    out->len = 0;
    if (fill_parts(k, side, pos, label))
        return -1;
    for (i64 j = 0; j < k->parts.len; j++) {
        i64 part = k->parts.data[j];
        if (push(out, side->arena + side->start[part], side->size[part]))
            return -1;
    }
    k->parts.len = 0;
    return 0;
}

/* down(pos, node): for every child of query node `node`, the vertex at pos has
 * an edge in the child's pool that holds the child's bit.  Decided once per
 * (node, vertex) and call, in k->degree (maintenance has no f2/f3 to keep
 * there): the deeper columns it reads are final by the time it is first asked. */
static int down(Kernel *k, i64 node, i64 pos)
{
    u64 key = (u64)node << 48 | (u64)pos;
    i64 known = map_get(&k->degree, key);
    if (known)
        return known == 1;
    int ok = 1;
    for (const i64 *te = k->te; ok && te < k->te + 6 * k->n_te; te += 6) {
        if (te[2] != node)
            continue;
        k->failed |= pool_into(k, te[3] ? &k->in : &k->out, pos, te[5], &k->pools);
        ok = 0;
        for (i64 i = 0; i < k->pools.len && !ok; i++)
            ok = debi_bit(k, k->pools.data[i], te[4]);
    }
    k->failed |= map_put(&k->degree, key, ok ? 1 : 2);
    return ok;
}

/* Put value in frontier slot `slot` unless it is there already. */
static void add(Kernel *k, i64 slot, i64 value)
{
    u64 key = (u64)slot << 48 | (u64)value;
    if (!map_get(&k->seen, key))
        k->failed |= map_put(&k->seen, key, 1) || push(&k->sets[slot], &value, 1);
}

/* One batch of DEBI maintenance, the numpy pass: ids are the inserted edges,
 * or with held the deleted ones (held[i]: the row edge i held).  Slot t holds
 * the edges to evaluate at tree edge t, slot n_te + u the vertices to re-check
 * at query node u.  Root ids to flip go to roots, the traversal count to
 * totals[0] and one past the highest row written to totals[1].  Returns 0, or -1 when memory ran out. */
static int filter(const i64 *env, const i64 *plan, const i64 *ids, const i64 *held, i64 n,
                  i64 *totals, Buf *roots)
{
    Kernel k;
    env_at(&k, env);
    plan_at(&k, plan);
    i64 nte = k.n_te, traversals = 0, written = 0;
    Buf doomed = {0};
    k.sets = calloc((size_t)(nte + k.n_nodes), sizeof *k.sets);
    k.failed = (k.sets == NULL) | map_init(&k.seen, n) | map_init(&k.degree, n);
    /* seeds: an inserted edge at every tree edge it matches, a deleted one's
     * parent endpoint at every tree edge whose bit it held */
    for (i64 i = 0; i < n && !k.failed; i++) {
        i64 e = ids[i], a = end_pos(&k.out, e), b = end_pos(&k.in, e);
        for (i64 t = 0; t < nte; t++) {
            const i64 *te = k.te + 6 * t;
            if (held && (held[i] >> te[4]) & 1)
                add(&k, nte + te[2], te[3] ? b : a);
            else if (!held && labels_ok(&k, k.qedge + 4 * te[0], e, a, b))
                add(&k, t, e);
        }
    }
    for (i64 t = 0; t < nte && !k.failed; t++) {
        const i64 *te = k.te + 6 * t;
        i64 child = te[1], parent = te[2], column = te[4];
        const Side *from_child = te[3] ? &k.out : &k.in, *to_parent = te[3] ? &k.in : &k.out;
        Buf *edges = &k.sets[t], *vertices = &k.sets[nte + child];
        if (held) {  /* every verdict of the node first, then its clears */
            traversals += vertices->len;
            for (i64 i = 0; i < vertices->len; i++)
                if (!down(&k, child, vertices->data[i]))
                    k.failed |= push(&doomed, &vertices->data[i], 1);
            for (i64 i = 0; i < doomed.len && !k.failed; i++) {
                k.failed |= pool_into(&k, from_child, doomed.data[i], te[5], &k.pools);
                traversals += k.pools.len;
                for (i64 j = 0; j < k.pools.len; j++) {
                    i64 e = k.pools.data[j];
                    if (!debi_bit(&k, e, column))
                        continue;
                    k.debi[e] &= ~((u64)1 << column);
                    written = e >= written ? e + 1 : written;
                    add(&k, nte + parent, end_pos(to_parent, e));
                }
            }
            doomed.len = 0;
            continue;
        }
        for (i64 i = 0; i < vertices->len && !k.failed; i++) {
            k.failed |= pool_into(&k, from_child, vertices->data[i], te[5], &k.pools);
            for (i64 j = 0; j < k.pools.len; j++)
                add(&k, t, k.pools.data[j]);
        }
        traversals += edges->len;
        for (i64 i = 0; i < edges->len && !k.failed; i++) {
            i64 e = edges->data[i], a = end_pos(&k.out, e), b = end_pos(&k.in, e);
            if (debi_bit(&k, e, column) || !labels_ok(&k, k.qedge + 4 * te[0], e, a, b)
                || !down(&k, child, te[3] ? a : b))
                continue;
            k.debi[e] |= (u64)1 << column;
            written = e >= written ? e + 1 : written;
            add(&k, nte + parent, te[3] ? b : a);
        }
    }
    /* the root: every vertex that gained support, or may have lost it */
    Buf *vertices = k.sets ? &k.sets[nte + k.root] : &doomed;  /* doomed is empty here */
    i64 label = k.node_label[k.root];
    traversals += vertices->len;
    for (i64 i = 0; i < vertices->len && !k.failed; i++) {
        i64 v = vertices->data[i];
        if (held ? root_bit(&k, v) && !down(&k, k.root, v)
                 : !root_bit(&k, v) && (label == ANY || label == k.vertex_label[v])
                       && down(&k, k.root, v))
            k.failed |= push(roots, &k.vertex_ids[v], 1);
    }
    totals[0] = traversals, totals[1] = written;
    for (i64 s = 0; k.sets && s < nte + k.n_nodes; s++)
        mn_free(&k.sets[s]);
    free(k.sets);
    map_free(&k.seen), map_free(&k.degree);
    mn_free(&doomed), mn_free(&k.parts), mn_free(&k.pools);
    return k.failed ? -1 : 0;
}

int mn_filter_insert(const i64 *env, const i64 *plan, const i64 *ids, i64 n, i64 *totals,
                     Buf *roots)
{
    return filter(env, plan, ids, NULL, n, totals, roots);
}

int mn_filter_delete(const i64 *env, const i64 *plan, const i64 *ids, const i64 *held, i64 n,
                     i64 *totals, Buf *roots)
{
    return filter(env, plan, ids, held, n, totals, roots);
}

/* Work decomposition (decompose_batch): per batch edge in order and query edge
 * in index order, a unit when the edge passes the stock matcher and, for a
 * tree edge, holds its bit.  The units' edges go to edges and their query
 * edges to starts, each with room for n times the query edges; returns the
 * number of units. */
i64 mn_decompose(const i64 *env, const i64 *plan, const i64 *ids, i64 n, i64 *edges, i64 *starts)
{
    Kernel k;
    env_at(&k, env);
    plan_at(&k, plan);
    i64 units = 0;
    for (i64 i = 0; i < n; i++) {
        i64 e = ids[i], a = end_pos(&k.out, e), b = end_pos(&k.in, e);
        for (i64 q = 0; q < plan[1]; q++) {
            const i64 *qe = k.qedge + 4 * q;
            if (labels_ok(&k, qe, e, a, b) && (qe[3] < 0 || debi_bit(&k, e, qe[3])))
                edges[units] = e, starts[units++] = q;
        }
    }
    return units;
}

/* ---------------------------------------------------------------- graph mutation */

/* mn_insert_columns, mn_resolve_deletes and mn_delete_columns are the numpy
 * apply_insert_columns, resolve_deletions and apply_delete_columns on the
 * graph's own columns, which Python has checked; the kernel allocates scratch
 * only.  A call short of room in a column or an arena says how much it needs
 * before any write; Python grows or repacks and calls again. */

/* A sorted directory (_Directory): n keys, then the sentinel in every slot. */
typedef struct { i64 *keys, *vals, n; } Dir;

/* Rows pooled in one arena (_Arena): row r is arena[start[r]:][:size[r]]. */
typedef struct { i64 *arena, *start, *size, *cap, len, tail, rows; } Rows;

/* One direction of the adjacency, writable. */
typedef struct { Dir dir; Rows r; i64 *vertex_pos, *label, *part_of; } Adj;

typedef struct {
    i64 *src, *dst, *label, *vertex_label, *vertex_ids, rows, free_count, recycle, recycled;
    double *ts;
    unsigned char *alive;
    Dir vertices;
    Adj side[2]; /* out, in */
    Rows free;
} Graph;

typedef struct { i64 key, val; } Pair;

#define MUT(type, value) ((type *)(intptr_t)(value))

/* The graph block native.py writes: 31 array addresses (the edge columns, the
 * vertex directory and columns, per side its directory, arena rows, owners,
 * labels and edge partitions, the free-id arena rows), the 11 counters written
 * back at g[31..41], the arena lengths, the recycling flag, the outputs (ids
 * recycled, the room each arena is short of), then the room of the vertex, out-
 * and in-partition and edge columns, each overwritten by what an insert short
 * of it needs (0: enough). */
static void graph_at(Graph *G, const i64 *g)
{
    G->src = MUT(i64, g[0]), G->dst = MUT(i64, g[1]), G->label = MUT(i64, g[2]);
    G->ts = MUT(double, g[3]), G->alive = MUT(unsigned char, g[4]);
    G->vertices = (Dir){MUT(i64, g[5]), MUT(i64, g[6]), g[32]};
    G->vertex_label = MUT(i64, g[7]), G->vertex_ids = MUT(i64, g[8]);
    for (int s = 0; s < 2; s++) {
        const i64 *a = g + 9 + 9 * s, *c = g + 33 + 3 * s;
        Adj *A = &G->side[s];
        A->dir = (Dir){MUT(i64, a[0]), MUT(i64, a[1]), c[0]};
        A->r = (Rows){MUT(i64, a[2]), MUT(i64, a[3]), MUT(i64, a[4]), MUT(i64, a[5]), g[42 + s],
                      c[2], c[1]};
        A->vertex_pos = MUT(i64, a[6]), A->label = MUT(i64, a[7]), A->part_of = MUT(i64, a[8]);
    }
    G->free = (Rows){MUT(i64, g[27]), MUT(i64, g[28]), MUT(i64, g[29]), MUT(i64, g[30]), g[44],
                     g[40], g[39]};
    G->rows = g[31], G->free_count = g[41], G->recycle = g[45], G->recycled = 0;
}

static void graph_back(const Graph *G, i64 *g)
{
    g[31] = G->rows, g[32] = G->vertices.n;
    for (int s = 0; s < 2; s++)
        g[33 + 3 * s] = G->side[s].dir.n, g[34 + 3 * s] = G->side[s].r.rows,
        g[35 + 3 * s] = G->side[s].r.tail;
    g[39] = G->free.rows, g[40] = G->free.tail, g[41] = G->free_count, g[46] = G->recycled;
}

/* vals[i]: the value in d of keys[i] (i < m), -1 when missing; vals may be keys. */
static void dir_find(const Dir *d, const i64 *keys, i64 m, i64 *vals)
{
    for (i64 i = 0; i < m; i++) {
        i64 at = lower_bound(d->keys, d->n + 1, keys[i]);
        vals[i] = at < d->n && d->keys[at] == keys[i] ? d->vals[at] : -1;
    }
}

static int by_key(const void *a, const void *b)
{
    i64 x = ((const Pair *)a)->key, y = ((const Pair *)b)->key;
    return (x > y) - (x < y);
}

/* Look keys[0..m) up in d: a missing key takes the value next, next + 1, ...
 * in order of first mention, and its first mention's index goes to fresh.
 * vals gets every key's value; nothing is written to d.  Returns -1 when out
 * of memory. */
static int intern(const Dir *d, const i64 *keys, i64 m, i64 next, i64 *vals, Buf *fresh)
{
    Map seen;
    int failed = map_init(&seen, 16);
    fresh->len = 0;
    dir_find(d, keys, m, vals);
    for (i64 i = 0; i < m && !failed; i++)
        if (vals[i] < 0 && (vals[i] = map_get(&seen, (u64)keys[i]) - 1) < 0) {
            vals[i] = next + fresh->len;
            failed = map_put(&seen, (u64)keys[i], vals[i] + 1) || push(fresh, &i, 1);
        }
    map_free(&seen);
    return failed ? -1 : 0;
}

/* File the keys intern found missing into d's reserved room, largest first:
 * the old keys above the j-th smallest new one move up j + 1 slots, each run
 * in one memmove.  Returns -1 when out of memory. */
static int file(Dir *d, const i64 *keys, i64 next, const Buf *fresh)
{
    Pair *pairs = fresh->len ? malloc((size_t)fresh->len * sizeof *pairs) : NULL;
    if (fresh->len && !pairs)
        return -1;
    for (i64 k = 0; k < fresh->len; k++)
        pairs[k] = (Pair){keys[fresh->data[k]], next + k};
    if (pairs)
        qsort(pairs, (size_t)fresh->len, sizeof *pairs, by_key);
    for (i64 j = fresh->len - 1, high = d->n; j >= 0; j--) {
        i64 at = high ? lower_bound(d->keys, high, pairs[j].key) : 0;
        memmove(d->keys + at + j + 1, d->keys + at, (size_t)(high - at) * sizeof(i64));
        memmove(d->vals + at + j + 1, d->vals + at, (size_t)(high - at) * sizeof(i64));
        d->keys[at + j] = pairs[j].key, d->vals[at + j] = pairs[j].val, high = at;
    }
    d->n += fresh->len;
    free(pairs);
    return 0;
}

/* The capacity a row that must hold `need` entries moves to (_Arena._relocate). */
static i64 grown(i64 need, i64 cap)
{
    cap = 2 * cap > need ? 2 * cap : need;
    return cap < 4 ? 4 : cap;
}

/* Count the appends to each row of rows[0..n) in counts, listing each row once
 * in distinct; returns the arena room the rows that overflow move to. */
static i64 plan_rows(const Rows *r, const i64 *rows, i64 n, Map *counts, Buf *distinct,
                     int *failed)
{
    i64 room = 0;
    *failed |= map_init(counts, n);
    for (i64 i = 0; i < n && !*failed; i++) {
        i64 seen = map_get(counts, (u64)rows[i]);
        *failed = map_put(counts, (u64)rows[i], seen + 1) || (!seen && push(distinct, &rows[i], 1));
    }
    for (i64 j = 0; j < distinct->len && !*failed; j++) {  /* a row not made yet is empty */
        i64 row = distinct->data[j], made = row < r->rows, cap = made ? r->cap[row] : 0;
        i64 need = (made ? r->size[row] : 0) + map_get(counts, (u64)row);
        room += need > cap ? grown(need, cap) : 0;
    }
    return room;
}

/* Move the rows plan_rows found overflowing to the arena tail, then append
 * values[i] to row rows[i], in order. */
static void append_rows(Rows *r, const i64 *rows, const i64 *values, i64 n, const Map *counts,
                        const Buf *distinct)
{
    for (i64 j = 0; j < distinct->len; j++) {
        i64 row = distinct->data[j], need = r->size[row] + map_get(counts, (u64)row);
        if (need <= r->cap[row])
            continue;
        memcpy(r->arena + r->tail, r->arena + r->start[row], (size_t)r->size[row] * sizeof(i64));
        r->start[row] = r->tail, r->cap[row] = grown(need, r->cap[row]);
        r->tail += r->cap[row];
    }
    for (i64 i = 0; i < n; i++)
        r->arena[r->start[rows[i]] + r->size[rows[i]]++] = values[i];
}

/* Every vertex has a free-id stack row; rows past the last are zero, so empty. */
static void free_rows(Graph *G)
{
    if (G->recycle && G->free.rows < G->vertices.n)
        G->free.rows = G->vertices.n;
}

/* Insert n checked edges (apply_insert_columns) in event order, all checks
 * first: intern the vertices (a new one labelled by its first mention), find or
 * create the partitions, take each id from the top of its source's free stack
 * or the next fresh one, write the edge columns, append the ids
 * (into ids too) to their partitions.  Returns 0; 1 when short of room (g[47..48],
 * g[50..53]); 2 when mention g[47] (src then dst per event) gives a vertex label
 * other than the g[48] its vertex holds or its first mention gives; -1 on OOM. */
int mn_insert_columns(i64 *g, const i64 *src, const i64 *dst, const i64 *label, const double *ts,
                      const i64 *src_label, const i64 *dst_label, i64 n, i64 *ids)
{
    Graph G;
    graph_at(&G, g);
    /* keys: the mentions (src, dst per event), then each side's partition keys */
    i64 *keys = malloc((size_t)(4 * n) * sizeof(i64)), *pos = malloc((size_t)(2 * n) * sizeof(i64));
    i64 *part = malloc((size_t)(2 * n) * sizeof(i64));
    /* fresh: new vertices, out-, in-partitions; distinct, counts: appends per side; counts[2]: pops */
    Buf fresh[3] = {{0}, {0}, {0}}, distinct[3] = {{0}, {0}, {0}};
    Map counts[3] = {{0}, {0}, {0}};
    int failed = !keys || !pos || !part || map_init(&counts[2], n), status = 0;
    i64 known = G.vertices.n, fresh_ids = 0;
    for (i64 i = 0; i < n && !failed; i++)
        keys[2 * i] = src[i], keys[2 * i + 1] = dst[i];
    failed = failed || intern(&G.vertices, keys, 2 * n, known, pos, &fresh[0]);
#define GIVEN(at) ((at) & 1 ? dst_label[(at) / 2] : src_label[(at) / 2])
    for (i64 i = 0; i < 2 * n && !failed && !status; i++) {
        i64 held = pos[i] < known ? G.vertex_label[pos[i]] : GIVEN(fresh[0].data[pos[i] - known]);
        if (GIVEN(i) && GIVEN(i) != held)
            g[47] = i, g[48] = held, status = 2;
    }
    for (int s = 0; s < 2 && !failed && !status; s++) {
        Adj *A = &G.side[s];
        i64 *k = keys + (2 + s) * n;
        for (i64 i = 0; i < n; i++)
            k[i] = pos[2 * i + s] * LABEL_SPAN + label[i] + LABEL_BIAS;
        failed = intern(&A->dir, k, n, A->r.rows, part + s * n, &fresh[1 + s]);
        i64 room = failed ? 0 : plan_rows(&A->r, part + s * n, n, &counts[s], &distinct[s], &failed);
        g[47 + s] = A->r.tail + room > A->r.len ? room : 0;
    }
    for (i64 i = 0; i < n && !failed && !status; i++) { /* the events no free stack serves */
        i64 r = pos[2 * i], popped = map_get(&counts[2], (u64)r);
        if (G.recycle && r < G.free.rows && popped < G.free.size[r])
            failed = map_put(&counts[2], (u64)r, popped + 1);
        else
            fresh_ids++;
    }
    if (!failed && !status) {
        i64 need[4] = {known + fresh[0].len, G.side[0].r.rows + fresh[1].len,
                       G.side[1].r.rows + fresh[2].len, G.rows + fresh_ids};
        status = g[47] || g[48];
        for (int k = 0; k < 4; k++)
            status |= (g[50 + k] = need[k] > g[50 + k] ? need[k] : 0) > 0;
    }
    failed = failed || (!status && file(&G.vertices, keys, known, &fresh[0]));
    for (i64 k = 0, *at = fresh[0].data; k < fresh[0].len && !failed && !status; k++)
        G.vertex_ids[known + k] = keys[at[k]], G.vertex_label[known + k] = GIVEN(at[k]);
    for (int s = 0; s < 2 && !failed && !status; s++) { /* rows past the last are zero: empty */
        Adj *A = &G.side[s];
        failed = file(&A->dir, keys + (2 + s) * n, A->r.rows, &fresh[1 + s]);
        for (i64 k = 0, *at = fresh[1 + s].data; k < fresh[1 + s].len && !failed; k++, A->r.rows++)
            A->vertex_pos[A->r.rows] = pos[2 * at[k] + s], A->label[A->r.rows] = label[at[k]];
    }
    if (!failed && !status) {
        free_rows(&G);
        for (i64 i = 0; i < n; i++) {
            i64 r = pos[2 * i], e = G.rows;
            if (G.recycle && r < G.free.rows && G.free.size[r])
                e = G.free.arena[G.free.start[r] + --G.free.size[r]], G.free_count--, G.recycled++;
            else
                G.rows++;
            ids[i] = e;
            G.src[e] = src[i], G.dst[e] = dst[i], G.label[e] = label[i], G.ts[e] = ts[i];
            G.alive[e] = 1;
            G.side[0].part_of[e] = part[i], G.side[1].part_of[e] = part[n + i];
        }
        for (int s = 0; s < 2; s++)
            append_rows(&G.side[s].r, part + s * n, ids, n, &counts[s], &distinct[s]);
    }
    graph_back(&G, g);
    for (int k = 0; k < 3; k++)
        map_free(&counts[k]), mn_free(&distinct[k]), mn_free(&fresh[k]);
    free(keys), free(pos), free(part);
    return failed ? -1 : status;
}

/* Delete n checked live edges (apply_delete_columns): mark them dead,
 * compact each partition they leave once, order kept, and push
 * the ids onto their sources' free stacks in batch order.  Returns 0, 1 when
 * the free-id arena is short of room (g[49]), or -1 when memory ran out. */
int mn_delete_columns(i64 *g, const i64 *ids, i64 n)
{
    Graph G;
    graph_at(&G, g);
    i64 *from = malloc((size_t)n * sizeof(i64));
    Map counts = {0}, done = {0};
    Buf distinct = {0};
    int failed = !from || map_init(&done, 2 * n), status = 0;
    for (i64 i = 0; i < n && !failed; i++)
        from[i] = G.side[0].vertex_pos[G.side[0].part_of[ids[i]]];
    if (!failed && G.recycle) {
        free_rows(&G);
        i64 room = plan_rows(&G.free, from, n, &counts, &distinct, &failed);
        if (G.free.tail + room > G.free.len)
            g[49] = room, status = 1;
    }
    if (!failed && !status) {
        for (i64 i = 0; i < n; i++)
            G.alive[ids[i]] = 0;
        for (i64 i = 0; i < 2 * n && !failed; i++) {
            Rows *r = &G.side[i & 1].r;
            i64 p = G.side[i & 1].part_of[ids[i / 2]], kept = 0, *entry = r->arena + r->start[p];
            if (map_get(&done, (u64)p << 1 | (u64)(i & 1)))
                continue;
            failed = map_put(&done, (u64)p << 1 | (u64)(i & 1), 1);
            for (i64 j = 0; j < r->size[p]; j++)
                if (G.alive[entry[j]])
                    entry[kept++] = entry[j];
            r->size[p] = kept;
        }
        if (G.recycle)
            append_rows(&G.free, from, ids, n, &counts, &distinct), G.free_count += n;
    }
    graph_back(&G, g);
    map_free(&counts), map_free(&done), mn_free(&distinct);
    free(from);
    return failed ? -1 : status;
}

/* A timestamp's class key: equal stamps (0.0 and -0.0 alike) share one; NaN none. */
static int stamp_bits(double stamp, u64 *bits)
{
    stamp += 0.0;
    memcpy(bits, &stamp, sizeof *bits);
    return stamp == stamp;
}

/* Resolve n deletion events (resolve_deletions): each takes, of its triple's
 * live instances no earlier event took, the oldest one with its timestamp,
 * else the latest one; doomed gets -1 where none is left.  A triple's
 * instances are its (src, label) out-partition's entries in its (dst, label)
 * in-partition, and every distinct out-partition is read once.  Returns 0, or
 * -1 when memory ran out. */
int mn_resolve_deletes(i64 *g, const i64 *src, const i64 *dst, const i64 *label,
                       const double *stamp, i64 n, i64 *doomed)
{
    Graph G;
    graph_at(&G, g);
    Adj *out = &G.side[0], *in = &G.side[1];
    Map triples, stamps, classes;
    Buf owners = {0};
    /* per event: its group, its class, its src and dst positions, then its out-
     * and in-partition (-1: no such vertex or partition, so no such edge) */
    i64 *group = malloc((size_t)(4 * n) * sizeof(i64)), *cls = group + n, *end = cls + n;
    i64 ngroups = 0, nstamps = 0, nclasses = 0, *inst = NULL, *tail = NULL, *head = NULL, total = 0;
    int failed = (group == NULL) | map_init(&triples, n) | map_init(&stamps, n) | map_init(&classes, n);
    if (!failed) {
        dir_find(&G.vertices, src, n, end), dir_find(&G.vertices, dst, n, end + n);
        for (i64 i = 0; i < 2 * n; i++) {
            i64 l = label[i % n], ok = end[i] >= 0 && l >= -LABEL_BIAS && l < LABEL_BIAS;
            end[i] = ok ? end[i] * LABEL_SPAN + l + LABEL_BIAS : -1;
        }
        dir_find(&out->dir, end, n, end), dir_find(&in->dir, end + n, n, end + n);
    }
    for (i64 i = 0; i < n && !failed; i++) {
        i64 op = end[i], ip = end[n + i];
        group[i] = cls[i] = -1;
        if (op < 0 || ip < 0)
            continue;
        u64 triple = (u64)op * (u64)in->r.rows + (u64)ip, bits;
        if ((group[i] = map_get(&triples, triple) - 1) < 0) {
            group[i] = ngroups++;
            failed = map_put(&triples, triple, group[i] + 1);
        }
        if (!failed && !map_get(&triples, (u64)1 << 63 | (u64)op)) {  /* a new out-partition */
            failed = map_put(&triples, (u64)1 << 63 | (u64)op, 1) || push(&owners, &op, 1);
            total += out->r.size[op];
        }
        if (failed || !stamp_bits(stamp[i], &bits))
            continue;
        i64 rank = map_get(&stamps, bits) - 1;
        if (rank < 0)
            failed = map_put(&stamps, bits, (rank = nstamps++) + 1);
        u64 key = (u64)group[i] << 32 | (u64)rank;
        if ((cls[i] = map_get(&classes, key) - 1) < 0)
            failed |= map_put(&classes, key, (cls[i] = nclasses++) + 1);
    }
    /* instance k: its edge, the one before it in its triple, the next in its class */
    inst = failed ? NULL : malloc((size_t)(3 * total + 1) * sizeof(i64));
    tail = failed ? NULL : malloc((size_t)(ngroups + 2 * nclasses + 1) * sizeof(i64));
    unsigned char *taken = failed ? NULL : calloc((size_t)total + 1, 1);
    failed |= !inst || !tail || !taken;
    i64 *prev = inst + total, *next = prev + total, k = 0, *ctail = tail + ngroups + nclasses;
    head = tail + ngroups;
    for (i64 j = 0; j < ngroups + 2 * nclasses && !failed; j++)
        tail[j] = -1;
    for (i64 j = 0; j < owners.len && !failed; j++) {
        i64 op = owners.data[j], *entry = out->r.arena + out->r.start[op];
        for (i64 m = 0; m < out->r.size[op]; m++) {
            i64 e = entry[m], gi = map_get(&triples, (u64)op * (u64)in->r.rows + (u64)in->part_of[e]) - 1;
            u64 bits;
            if (gi < 0)
                continue;
            inst[k] = e, prev[k] = tail[gi], tail[gi] = k, next[k] = -1;
            i64 rank = stamp_bits(G.ts[e], &bits) ? map_get(&stamps, bits) - 1 : -1;
            i64 c = rank < 0 ? -1 : map_get(&classes, (u64)gi << 32 | (u64)rank) - 1;
            if (c >= 0)
                *(ctail[c] >= 0 ? &next[ctail[c]] : &head[c]) = k, ctail[c] = k;
            k++;
        }
    }
    for (i64 i = 0; i < n && !failed; i++) {
        i64 gi = group[i], c = cls[i], take = -1;
        if (c >= 0) {
            while (head[c] >= 0 && taken[head[c]])
                head[c] = next[head[c]];
            take = head[c];
        }
        if (gi >= 0 && take < 0) {
            while (tail[gi] >= 0 && taken[tail[gi]])
                tail[gi] = prev[tail[gi]];
            take = tail[gi];
        }
        doomed[i] = take < 0 ? -1 : (taken[take] = 1, inst[take]);
    }
    map_free(&triples), map_free(&stamps), map_free(&classes), mn_free(&owners);
    free(group), free(inst), free(tail), free(taken);
    return failed ? -1 : 0;
}
