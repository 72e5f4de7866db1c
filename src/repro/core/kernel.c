/*
 * Native kernel for stock match definitions: enumeration, DEBI maintenance
 * and work decomposition.
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
 * DEBI maintenance (mn_filter_insert / mn_filter_delete) and work
 * decomposition (mn_decompose) are IndexManager.handle_insert_columns /
 * handle_deletions and decompose_batch of the numpy code on the same arrays:
 * the same columns deepest first, frontier slots that are sets, the same
 * traversal count.  Bits are written in place; root bits stay Python's, so
 * the calls return the raw ids whose root bit flips.
 *
 * repro/core/native.py writes env (graph and DEBI arrays) and plan (the
 * encoded query, or its index plan); keep the two in step.
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
    int collect, failed;
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
    u64 stored = key + 1, hash = stored * 0x9E3779B97F4A7C15ULL;
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

/* Index of the first directory key >= key; the sentinel ends every search. */
static i64 first_key(const Side *side, i64 key)
{
    i64 low = 0, high = side->nkeys - 1;
    while (low < high) {
        i64 mid = low + (high - low) / 2;
        if (side->keys[mid] < key)
            low = mid + 1;
        else
            high = mid;
    }
    return low;
}

/* The directory entries of a vertex: one per label it has edges of. */
#define FOR_LABELS(at, side, pos) \
    for (i64 at = first_key(side, (pos) * LABEL_SPAN); \
         (side)->keys[at] < ((pos) + 1) * LABEL_SPAN; at++)

static i64 partition(const Side *side, i64 pos, i64 label)
{
    if (label < -LABEL_BIAS || label >= LABEL_BIAS)
        return -1;
    i64 key = pos * LABEL_SPAN + label + LABEL_BIAS, at = first_key(side, key);
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

/* The candidates of a step at an anchor position, fetched and charged on the
 * first visit and kept for the rest of the call: every pool entry that passes
 * the DEBI bit, the batch mask, the root bit and the f2/f3 rule, as (edge,
 * vertex position) pairs after their count.  Returns the offset of the count
 * in k->pools, or -1 when out of memory. */
static i64 candidates(Kernel *k, const i64 *step, i64 anchor)
{
    u64 key = (u64)(step - k->plan) << 40 | (u64)anchor;
    i64 at = map_get(&k->pool_at, key) - 1, size = 0, none = 0;
    if (at >= 0)
        return at;
    i64 node = step[0], column = step[4], masked = step[6];
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
            if (push(&k->pools, pair, 2))
                return -1;
            k->pools.data[at]++;
        }
    }
    k->parts.len = 0;
    /* a pool is charged once per (charge key, anchor) */
    u64 charge = (u64)step[7] << 48 | (u64)anchor;
    i64 triple[3] = {step[7], k->vertex_ids[anchor], size};
    if (!map_get(&k->charged, charge)
        && (map_put(&k->charged, charge, 1) || push(k->charges, triple, 3)))
        return -1;
    return k->failed || map_put(&k->pool_at, key, at + 1) ? -1 : at;
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
 * ascending) then its bound edges (query edges ascending).  Returns 0, or -1
 * when memory ran out. */
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
        const i64 *verify = k.slots + k.nslots + 1;
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
                extend(&k, verify + 2 * nverify + 1, verify[2 * nverify]);
            k.vpos[src] = k.vpos[dst] = -1;
        }
        groups[3 * n_groups + 1] = k.count - before;
        n_groups += k.count > before;
    }
    totals[0] = k.count, totals[1] = k.scanned, totals[2] = n_groups;
    map_free(&k.batch), map_free(&k.degree), map_free(&k.charged), map_free(&k.pool_at);
    mn_free(&k.parts), mn_free(&k.pools);
    free(grouped), free(k.row), free(k.used), free(k.eid), free(k.vpos);
    return k.failed ? -1 : 0;
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
 * at query node u.  Rows written go to touched, root ids to flip to roots, the
 * traversal count to totals[0].  Returns 0, or -1 when memory ran out. */
static int filter(const i64 *env, const i64 *plan, const i64 *ids, const i64 *held, i64 n,
                  i64 *totals, Buf *touched, Buf *roots)
{
    Kernel k;
    env_at(&k, env);
    plan_at(&k, plan);
    i64 nte = k.n_te, traversals = 0;
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
                    k.failed |= push(touched, &e, 1);
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
            k.failed |= push(touched, &e, 1);
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
    totals[0] = traversals;
    for (i64 s = 0; k.sets && s < nte + k.n_nodes; s++)
        mn_free(&k.sets[s]);
    free(k.sets);
    map_free(&k.seen), map_free(&k.degree);
    mn_free(&doomed), mn_free(&k.parts), mn_free(&k.pools);
    return k.failed ? -1 : 0;
}

int mn_filter_insert(const i64 *env, const i64 *plan, const i64 *ids, i64 n, i64 *totals,
                     Buf *touched, Buf *roots)
{
    return filter(env, plan, ids, NULL, n, totals, touched, roots);
}

int mn_filter_delete(const i64 *env, const i64 *plan, const i64 *ids, const i64 *held, i64 n,
                     i64 *totals, Buf *touched, Buf *roots)
{
    return filter(env, plan, ids, held, n, totals, touched, roots);
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
