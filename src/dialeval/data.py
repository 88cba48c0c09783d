"""Dataset files: bAbI-dialog style text plus a JSONL metadata sidecar.

Dialog lines look like ``n user_text\treply_text`` with n restarting at 1 for
every dialog.  A line's reply is `taskgen.reply_text` of its gold, which
joins multiple answers by '|'; a later line's context quotes it as the
generator did.  The sidecar carries one JSON object per example line:
global line number, task tag, question class, response position and dialog
id.  Explicit candidate pools live in their own one-response-per-line files.
"""

from __future__ import annotations

import json
import os

from dialeval import DataError
from dialeval.taskgen import Example, reply_text


def _clean(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ")


def write_examples(path, examples: list[Example]) -> None:
    """Write dialog lines and the .meta.jsonl sidecar next to them."""
    meta_path = str(path) + ".meta.jsonl"
    with open(path, "w", encoding="utf-8") as f, \
            open(meta_path, "w", encoding="utf-8") as mf:
        lineno = 0
        prev_dialog = None
        for ex in examples:
            if ex.dialog_id != prev_dialog:
                if ex.response_position != 1:
                    raise DataError(
                        f"dialog {ex.dialog_id} does not start at position 1")
                prev_dialog = ex.dialog_id
            lineno += 1
            reply = _clean(reply_text(ex.gold))
            f.write(f"{ex.response_position} {_clean(ex.input)}\t{reply}\n")
            mf.write(json.dumps({
                "line": lineno,
                "task": ex.task_tag,
                "class": ex.question_class,
                "position": ex.response_position,
                "dialog": ex.dialog_id,
            }, sort_keys=True) + "\n")


def write_pool(path, pool: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_clean(c) + "\n" for c in pool)


def read_pool(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def read_examples(path, pool: list[str] | None = None) -> list[Example]:
    """Reconstruct examples; context turns come from earlier dialog lines."""
    meta_path = str(path) + ".meta.jsonl"
    if not os.path.exists(meta_path):
        raise DataError(f"missing metadata sidecar {meta_path}")
    with open(meta_path, encoding="utf-8") as mf:
        metas = [json.loads(line) for line in mf if line.strip()]
    # one tuple for the whole split, so rankers featurize the pool once
    shared_pool = tuple(pool) if pool is not None else None
    out: list[Example] = []
    context: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f):
            line = line.rstrip("\n")
            if not line:
                continue
            if i >= len(metas):
                raise DataError(f"{path}: more lines than metadata records")
            meta = metas[i]
            try:
                n_str, rest = line.split(" ", 1)
                position = int(n_str)
                user_text, reply = rest.split("\t", 1)
            except ValueError:
                raise DataError(f"{path}:{i + 1}: malformed dialog line")
            if position == 1:
                context = []
            if position != meta["position"]:
                raise DataError(f"{path}:{i + 1}: position disagrees with sidecar")
            gold = (reply,) if meta["task"] == "discussion" else tuple(reply.split("|"))
            out.append(Example(
                input=user_text,
                gold=gold,
                context=tuple(context),
                task_tag=meta["task"],
                question_class=meta["class"],
                response_position=position,
                dialog_id=meta["dialog"],
                candidate_pool=shared_pool if meta["task"] == "discussion" else None,
            ))
            context.append((user_text, reply))  # reply_text(gold), as written
    if len(out) != len(metas):
        raise DataError(f"{path}: line/metadata count mismatch")
    return out
