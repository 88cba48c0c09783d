"""Natural-language patterns used to realize the generated tasks.

Template files are plain text: section headers in brackets, one pattern per
line, '#' comments.  Slots are written [@movie], [@actor], [@movies],
[@topic], [@value].
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from dialeval import DataError

# question classes, one per KB edge direction (movie_to_language has no
# supporting relation in the 8-relation schema and is skipped with a warning
# at generation time, but stays in the enumeration so reports keep 11 rows)
QUESTION_CLASSES = (
    "actor_to_movie",
    "movie_to_actors",
    "movie_to_director",
    "director_to_movie",
    "movie_to_writer",
    "writer_to_movie",
    "movie_to_tags",
    "tag_to_movie",
    "movie_to_year",
    "movie_to_genre",
    "movie_to_language",
)

# question class -> (relation, direction); forward queries objects of a movie,
# inverse queries movies of an object
CLASS_EDGES: dict[str, tuple[str, str] | None] = {
    "actor_to_movie": ("starred_actors", "inverse"),
    "movie_to_actors": ("starred_actors", "forward"),
    "movie_to_director": ("directed_by", "forward"),
    "director_to_movie": ("directed_by", "inverse"),
    "movie_to_writer": ("written_by", "forward"),
    "writer_to_movie": ("written_by", "inverse"),
    "movie_to_tags": ("has_tags", "forward"),
    "tag_to_movie": ("has_tags", "inverse"),
    "movie_to_year": ("release_year", "forward"),
    "movie_to_genre": ("has_genre", "forward"),
    "movie_to_language": None,
}

_SLOT = re.compile(r"\[@([a-z_]+)\]")

_CLASS_SLOT = {
    "actor_to_movie": "actor",
    "movie_to_actors": "movie",
    "movie_to_director": "movie",
    "director_to_movie": "director",
    "movie_to_writer": "movie",
    "writer_to_movie": "writer",
    "movie_to_tags": "movie",
    "tag_to_movie": "tag",
    "movie_to_year": "movie",
    "movie_to_genre": "movie",
    "movie_to_language": "movie",
}


@dataclass
class TemplateSet:
    qa: dict[str, list[str]]
    recs: list[str]
    dialog_opener: list[str]          # liked list + topic constraint
    dialog_question: dict[str, list[str]]   # anaphoric factoid by property
    dialog_preference: list[str]      # alternative request with stated property

    def validate(self) -> None:
        for cls, patterns in self.qa.items():
            slot = "[@" + _CLASS_SLOT[cls] + "]"
            for p in patterns:
                slots = _SLOT.findall(p)
                if slots != [_CLASS_SLOT[cls]]:
                    raise DataError(f"pattern {p!r} for {cls} must carry exactly {slot}")
        for p in self.recs + self.dialog_opener:
            if "[@movies]" not in p:
                raise DataError(f"statement pattern {p!r} lacks [@movies]")
        for p in self.dialog_opener:
            if "[@topic]" not in p:
                raise DataError(f"opener pattern {p!r} lacks [@topic]")
        for p in self.dialog_preference:
            if "[@value]" not in p:
                raise DataError(f"preference pattern {p!r} lacks [@value]")


DEFAULT_TEMPLATES = TemplateSet(
    qa={
        "actor_to_movie": [
            "what movies did [@actor] star in?",
            "[@actor] appears in which movies?",
            "can you name a film starring [@actor]?",
        ],
        "movie_to_actors": [
            "who starred in [@movie]?",
            "who acted in the movie [@movie]?",
        ],
        "movie_to_director": [
            "who directed the film [@movie]?",
            "can you tell me who directed [@movie]?",
        ],
        "director_to_movie": [
            "can you name a film directed by [@director]?",
            "what movies did [@director] direct?",
        ],
        "movie_to_writer": [
            "who wrote the film [@movie]?",
            "who was the writer of [@movie]?",
        ],
        "writer_to_movie": [
            "what films did [@writer] write?",
            "can you name a movie written by [@writer]?",
        ],
        "movie_to_tags": [
            "what is the movie [@movie] about?",
            "describe the film [@movie]",
        ],
        "tag_to_movie": [
            "what movies are about [@tag]?",
            "can you suggest a film about [@tag]?",
        ],
        "movie_to_year": [
            "when was the movie [@movie] released?",
            "what year was [@movie] made?",
        ],
        "movie_to_genre": [
            "what is the genre of the film [@movie]?",
            "what kind of film is [@movie]?",
        ],
        "movie_to_language": [
            "what language is [@movie] in?",
        ],
    },
    recs=[
        "[@movies] are films i really liked. can you suggest a film?",
        "some movies i like are [@movies]. can you suggest something else i might like?",
        "i loved [@movies]. i am looking for another movie to watch.",
    ],
    dialog_opener=[
        "[@movies] are films i really liked. i'm looking for a [@topic] movie.",
        "i loved [@movies]. can you suggest a [@topic] film?",
    ],
    dialog_question={
        "movie_to_actors": ["who stars in that?", "who acted in that one?"],
        "movie_to_director": ["who directed that?", "who was the director of that?"],
        "movie_to_tags": ["what else is that about?", "what is that one about?"],
    },
    dialog_preference=[
        "i like [@value] movies more. do you know anything else?",
        "actually i prefer [@value] films. any other ideas?",
    ],
)
DEFAULT_TEMPLATES.validate()


def load_templates(path) -> TemplateSet:
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]") and not line.startswith("[@"):
                current = sections.setdefault(line[1:-1], [])
            elif current is None:
                raise DataError(f"{path}:{lineno}: pattern before any section header")
            else:
                current.append(line)
    qa = {cls: sections.get("qa:" + cls, DEFAULT_TEMPLATES.qa[cls]) for cls in QUESTION_CLASSES}
    ts = TemplateSet(
        qa=qa,
        recs=sections.get("recs", DEFAULT_TEMPLATES.recs),
        dialog_opener=sections.get("dialog_opener", DEFAULT_TEMPLATES.dialog_opener),
        dialog_question={
            cls: sections.get("dialog_question:" + cls, pats)
            for cls, pats in DEFAULT_TEMPLATES.dialog_question.items()
        },
        dialog_preference=sections.get("dialog_preference", DEFAULT_TEMPLATES.dialog_preference),
    )
    ts.validate()
    return ts


def fill(pattern: str, **slots: str) -> str:
    def sub(match: re.Match) -> str:
        name = match.group(1)
        if name not in slots:
            raise DataError(f"pattern slot [@{name}] has no value")
        return slots[name]

    return _SLOT.sub(sub, pattern)


def join_titles(titles: list[str]) -> str:
    if len(titles) == 1:
        return titles[0]
    if len(titles) == 2:
        return f"{titles[0]} and {titles[1]}"
    return ", ".join(titles[:-1]) + f", and {titles[-1]}"
