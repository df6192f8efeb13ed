"""Reference oracle for canon.canonical_form: the exhaustive sign-flip
quotient, without pruning.

For every distinct edge permutation of the skeleton's move group it keeps
every greedy sign branch to the end and takes the minimum of all outputs; no
bound is carried between permutations and no branch is dropped early.  It
shares nothing with canon's pruned search but the move group,
canon.germ_symmetries, so that search can be compared with it byte for byte.
"""

from fakesurfaces.canon import germ_symmetries


def _distinct_edge_perms(s):
    """Edge permutations of the move group, each with the flag vector of its
    first symmetry (flag e: the symmetry writes letter e+1 as a negative
    letter); residual flag differences are absorbed by the sign group."""
    seen = {}
    for sym in germ_symmetries(s):
        if sym.edge_perm not in seen:
            seen[sym.edge_perm] = tuple(sym.apply_letter(s, e + 1) < 0 for e in range(s.n_edges))
    return tuple(sorted(seen.items()))


def _greedy_signs(word, signs, cutoff):
    """Resolve a word's letters under partially decided edge signs, deciding
    free edges so the word is lexicographically minimal.  Returns the
    resolved letter-key sequence, the extended sign vector, and False early
    when the sequence already exceeds the cutoff."""
    new_signs = list(signs)
    out = []
    for i, x in enumerate(word):
        e = abs(x) - 1
        bit = new_signs[e]
        if bit is None:
            bit = 0 if x > 0 else 1  # make this occurrence positive
            new_signs[e] = bit
        positive = (x > 0) == (bit == 0)
        out.append((abs(x), 0 if positive else 1))
        if cutoff is not None and i < len(cutoff):
            if out[i] > cutoff[i]:
                return out, None, False
            if out[i] < cutoff[i]:
                cutoff = None
    return out, tuple(new_signs), True


def min_signed_list(words, n_edges):
    """Minimize (sorted word list after per-word rotation/reversal) over all
    per-edge sign assignments, exactly, keeping every tied branch."""
    # state: (signs tuple with None undecided, remaining words, output so far);
    # remaining stays sorted so duplicate words collapse into one branch
    words = tuple(sorted((tuple(w) for w in words), key=lambda w: (len(w), w)))
    states = [(tuple([None] * n_edges), words, ())]
    while True:
        done = [st for st in states if not st[1]]
        if done:
            return min(tuple(st[2]) for st in done)
        advanced = {}
        for signs, remaining, out in states:
            min_len = len(remaining[0])
            best_val = None
            choices = {}
            for pos, w in enumerate(remaining):
                if len(w) > min_len:
                    break
                if pos > 0 and w == remaining[pos - 1]:
                    continue  # identical word, identical candidates
                for variant in (w, tuple(-x for x in reversed(w))):
                    doubled = variant + variant
                    for r in range(len(w)):
                        cand = doubled[r : r + len(w)]
                        val, new_signs, ok = _greedy_signs(cand, signs, best_val)
                        if not ok:
                            continue
                        key = tuple(val)
                        if best_val is None or key < best_val:
                            best_val = key
                            choices = {(new_signs, pos): None}
                        elif key == best_val:
                            choices[(new_signs, pos)] = None
            for new_signs, pos in choices:
                rest = remaining[:pos] + remaining[pos + 1 :]
                st = (new_signs, rest, out + (best_val,))
                advanced[st] = None
        states = list(advanced)


def canonical_form(f):
    """Minimum over the published move group: edge relabelings, sign flips
    of every edge, word rotation/reversal, disk reorder."""
    s = f.skeleton
    best = None
    for perm, flip in _distinct_edge_perms(s):
        mapped = tuple(
            tuple(
                (perm[abs(x) - 1] + 1) * (1 if (x > 0) != flip[abs(x) - 1] else -1)
                for x in w
            )
            for w in f.disks
        )
        cand = min_signed_list(mapped, s.n_edges)
        if best is None or cand < best:
            best = cand
    return tuple(tuple(a if bit == 0 else -a for a, bit in w) for w in best)
