"""Independent oracle for the factor library: the factors of one length read
from every window of the whole texts.

Every factor of length n of the fixed point lies in a text phi^k(a) phi^k(b)
with ab a two-letter factor, once every block phi^k(a) has at least n - 1
letters.  The two-letter factors are the least set that holds the first two
letters of u and the two-letter factors of phi(ab) for each ab in it.  This
reader slices every window of every block and of every pair's boundary;
``factor_library`` reads only the letters around the joints of its blocks.
"""

from parryscope.substitution import build_substitution


def whole_block_factors(d, n: int):
    """(the factors of length n as bytes, the total length of the texts
    phi^k(a) phi^k(b)), for the least k with every |phi^k(a)| >= n - 1."""
    images = [bytes(im) for im in build_substitution(d).images]
    pairs = {images[0][:2]}  # u starts with phi(0) = 0^(t_1) 1
    while True:
        images_of_pairs = [images[a] + images[b] for a, b in pairs]
        grown = pairs.union(*({t[i:i + 2] for i in range(len(t) - 1)} for t in images_of_pairs))
        if grown == pairs:
            break
        pairs = grown
    blocks = [bytes([a]) for a in range(d.m)]
    while min(map(len, blocks)) < n - 1:
        blocks = [b"".join(blocks[c] for c in im) for im in images]
    edge = n - 1
    texts = blocks + [blocks[a][len(blocks[a]) - edge:] + blocks[b][:edge] for a, b in pairs]
    factors = {text[i:i + n] for text in texts for i in range(len(text) - edge)}
    return factors, sum(len(blocks[a]) + len(blocks[b]) for a, b in pairs)
