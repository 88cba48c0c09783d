"""Mixed entity/unigram dictionary with greedy longest-match tokenization.

Every KB entity name is one dictionary symbol ("kung fu hustle" is a single
token), so a model can emit an entity as one ranked symbol.  Remaining
unigrams enter the dictionary only above a frequency floor.  The tokenizer
scans left to right consuming the longest matching symbol at each step.
"""

from __future__ import annotations

import re

from dialeval import DataError

NULL_TOKEN = "<null>"
UNK_TOKEN = "<unk>"
NULL_ID = 0
UNK_ID = 1

_PUNCT = re.compile(r"[^a-z0-9_\s]+")


def normalize(text: str) -> list[str]:
    """Lower-case, strip punctuation to whitespace, split into words."""
    return _PUNCT.sub(" ", text.lower()).split()


class Vocabulary:
    def __init__(self, symbols, entity_flags, counts):
        self.symbols: list[str] = list(symbols)
        self.entity_flags: list[bool] = list(entity_flags)
        self.counts: list[int] = list(counts)
        self.index: dict[str, int] = {s: i for i, s in enumerate(self.symbols)}
        assert self.symbols[NULL_ID] == NULL_TOKEN
        assert self.symbols[UNK_ID] == UNK_TOKEN
        # first word of a symbol -> [(word tuple, id)] longest first, entity
        # preferred on length ties
        self._by_first: dict[str, list[tuple[tuple[str, ...], int]]] = {}
        for i, sym in enumerate(self.symbols):
            if i in (NULL_ID, UNK_ID):
                continue
            words = tuple(sym.split())
            if not words:
                continue
            self._by_first.setdefault(words[0], []).append((words, i))
        for cands in self._by_first.values():
            cands.sort(key=lambda wi: (-len(wi[0]), not self.entity_flags[wi[1]], wi[1]))
        # the symbols and flags the tokenizer was built from, as one string
        # (which caches its hash): vocabularies with equal keys tokenize
        # alike, so featurizations can be shared by content, not by object
        self.key = "\n".join(f"{'E' if e else 'U'}{s}"
                              for s, e in zip(self.symbols, self.entity_flags))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def is_entity(self, token_id: int) -> bool:
        return self.entity_flags[token_id]

    def entity_ids(self) -> list[int]:
        return [i for i, f in enumerate(self.entity_flags) if f]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sym, cnt, ent in zip(self.symbols, self.counts, self.entity_flags):
                f.write(f"{sym}\t{cnt}\t{'E' if ent else 'U'}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        symbols, flags, counts = [], [], []
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
                try:
                    counts.append(int(parts[1]))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: count {parts[1]!r} is not an "
                                    "integer") from None
                symbols.append(parts[0])
                flags.append(parts[2] == "E")
        if symbols[:2] != [NULL_TOKEN, UNK_TOKEN]:
            raise DataError(f"{path}: must start with {NULL_TOKEN} and {UNK_TOKEN}")
        return cls(symbols, flags, counts)


def build_vocabulary(corpus, entity_names, min_freq: int = 5) -> Vocabulary:
    """Entities always enter; other unigrams need corpus frequency >= min_freq.

    Ids: <null>, <unk>, entities in given order, then unigrams by descending
    count (ties lexicographic).
    """
    entities: list[str] = []
    entity_set: set[str] = set()
    for name in entity_names:
        norm = " ".join(normalize(name))
        if not norm:
            continue
        if norm in entity_set:
            raise DataError(f"duplicate entity name after lower-casing: {norm!r}")
        entity_set.add(norm)
        entities.append(norm)

    corpus = list(corpus)  # read twice: unigram counts, then entity matches
    word_counts: dict[str, int] = {}
    saw_text = False
    for line in corpus:
        for w in normalize(line):
            saw_text = True
            word_counts[w] = word_counts.get(w, 0) + 1
    if not entities and not saw_text:
        raise DataError("empty corpus and no entities: nothing to build")

    unigrams = sorted(
        (w for w, c in word_counts.items() if c >= min_freq and w not in entity_set),
        key=lambda w: (-word_counts[w], w),
    )

    symbols = [NULL_TOKEN, UNK_TOKEN] + entities + unigrams
    flags = [False, False] + [True] * len(entities) + [False] * len(unigrams)
    counts = (
        [0, 0]
        + [word_counts.get(e, 0) if " " not in e else 0 for e in entities]
        + [word_counts[w] for w in unigrams]
    )
    vocab = Vocabulary(symbols, flags, counts)
    # second pass: matched occurrence counts for multi-word entities
    if any(" " in e for e in entities):
        for line in corpus:
            for tid in tokenize(vocab, line):
                if vocab.entity_flags[tid] and " " in vocab.symbols[tid]:
                    vocab.counts[tid] += 1
    return vocab


def tokenize(vocab: Vocabulary, text: str) -> list[int]:
    """Greedy left-to-right longest-match; unmatched words map to UNK."""
    words = normalize(text)
    ids: list[int] = []
    pos = 0
    n = len(words)
    while pos < n:
        matched = False
        for sym_words, tid in vocab._by_first.get(words[pos], ()):
            ln = len(sym_words)
            if pos + ln <= n and tuple(words[pos:pos + ln]) == sym_words:
                ids.append(tid)
                pos += ln
                matched = True
                break
        if not matched:
            ids.append(UNK_ID)
            pos += 1
    return ids


def bag(ids) -> dict[int, int]:
    """Multiset of token ids; NULL padding and UNK carry no signal and are dropped."""
    out: dict[int, int] = {}
    for i in ids:
        if i not in (NULL_ID, UNK_ID):
            out[i] = out.get(i, 0) + 1
    return out
