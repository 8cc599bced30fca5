"""The sentence matcher of parse_passage against its expat reader.

A seeded generator writes documents in serialize_passage's line shape, then
perturbs some of them.  parse_passage, which reads with the matcher as far as
it can and with expat from there, must return exactly what expat alone
returns, with equal items shared the same way, and must raise expat's error
wherever expat raises, whether it is given the text whole or as blocks.
"""

import functools
import random

import pytest

from valex import markup
from valex.errors import FormatError
from valex.passage import SentenceAnnotation, parse_passage, serialize_passage

CTYPES = [c.value for c in markup.ConstituentType]
RTYPES = [r.value for r in markup.RelationType]
# Tokens both readers take as they stand: tab, LF, DEL, C1 controls,
# non-characters that XML allows, non-BMP characters, the empty token,
# quotes and apostrophes.
PLAIN_TOKENS = ["le", "chat", "dégradent", ",", "", "a b", "\t", "x\ny", "\x7f",
                "\x85", " ", "﷐", "\U0001d518", "\U0001f600", "\U0010fffd", "]]",
                "l'", "aujourd'hui", "qu'", '"', "«", "»", "'", '"non"']
PLAIN_IDS = ["s", "E1", "frmg.1", "a b", "\x7f", "\U0001d518", "]]", "/", "=", "d'", "l'E"]


def canonical_lines(rng: random.Random) -> list[str]:
    """Lines as serialize_passage writes them, from raw values that may be
    out of range, so that the models refuse some of them."""
    lines = []
    for k in range(rng.randint(0, 4)):
        n = rng.randint(1, 4)
        lines.append(f'<S id="{rng.choice(PLAIN_IDS)}{k}" full="{rng.choice(("yes", "no"))}">')
        lines += [f'  <W ix="{i}">{rng.choice(PLAIN_TOKENS)}</W>' for i in range(n)]
        for _ in range(rng.randint(0, 3)):
            start = rng.randrange(n)
            lines.append(f'  <G type="{rng.choice(CTYPES)}" start="{start}" end="{rng.randint(start + 1, n)}"/>')
        for _ in range(rng.randint(0, 3) if n > 1 else 0):
            src, tgt = rng.sample(range(n), 2)
            lines.append(f'  <R type="{rng.choice(RTYPES)}" src="{src}" tgt="{tgt}"/>')
        lines.append("</S>")
    return lines


def _replace(old: str, new: str):
    """A perturbation that rewrites the first `old` of one line holding it."""
    def perturb(rng, lines):
        hits = [k for k, line in enumerate(lines) if old in line]
        if hits:
            k = rng.choice(hits)
            lines[k] = lines[k].replace(old, new, 1)
    return perturb


def _token(token: str):
    return _replace("</W>", f"{token}</W>")


def _last_line(rng, lines):
    if lines:
        lines[-1] = rng.choice(["</S >", "</S><!-- end -->", " </S>", "</S>\t", "<S/>"])


def _repeat_id(rng, lines):
    heads = [k for k, line in enumerate(lines) if line.startswith("<S ")]
    if len(heads) > 1:
        lines[rng.choice(heads[1:])] = lines[heads[0]]


def _repeat_line(rng, lines):
    if lines:
        k = rng.randrange(len(lines))
        lines.insert(k, lines[k])


def _drop_line(rng, lines):
    if lines:
        del lines[rng.randrange(len(lines))]


PERTURBATIONS = [
    _token("&amp;"), _token("&#233;"), _token("&lt;x&gt;"), _token("&#13;"), _token("&#x1F600;"),
    _token("\x01"), _token("\x0b"), _token("\x1f"), _token("\x00"), _token("￾"),
    _token("￿"), _token("\ud800"), _token("]]>"), _token(">"), _token('"'), _token("'"),
    _token("\r"), _token("<![CDATA[<c>]]>"), _token("<!-- c -->"), _token("<X/>"),
    _token("\U0001f600"), _token("\udfff"),
    _replace('id="', 'id="&quot;'), _replace('id="', 'id="\t'), _replace('id="', 'id="\x01'),
    _replace('id="', 'id="\ud800'), _replace('id="', 'id="￾'), _replace('id="', "id=\"'"),
    _replace('id="', 'id="\U0001f600'), _replace('id="', 'id="<'), _replace('id="', 'id="\n'),
    _replace(' full="yes"', ""), _replace('full="yes"', 'full="maybe"'), _replace('"', "'"),
    _replace('<S id="s0" full="yes">', '<S full="yes" id="s0">'),
    _replace(' start="0" end="1"', ' end="1" start="0"'), _replace(' src="0"', ' tgt="1" src="0"'),
    _replace("/>", " />"), _replace("<W ", "<W  "), _replace("  <", "   <"), _replace("  <", "\t<"),
    _replace("  <", "<"), _replace("<S ", "<S  "), _replace("<S id", "<S xmlns:x=\"u\" id"),
    _replace('ix="0"', 'ix="00"'), _replace('ix="1"', 'ix="01"'), _replace('ix="1"', 'ix=" 1"'),
    _replace('ix="1"', 'ix="2"'), _replace('ix="1"', 'ix="١"'), _replace('start="0"', 'start="00"'),
    _replace('end="1"', 'end="١"'), _replace('src="1"', 'src="+1"'), _replace('tgt="0"', 'tgt="-0"'),
    _replace('start="0"', 'start="-1"'), _replace('end="', 'end="9'), _replace('src="0"', 'src="x"'),
    _replace('type="GN"', 'type="ZZ"'), _replace('type="COORD"', 'type="coord"'),
    _replace('type="GN"', 'type="SUJ-V"'), _replace('type="GP" ', ""), _replace(' end="1"', ""),
    _replace('start="0" end="1"', 'start="1" end="1"'), _replace('src="0" tgt="1"', 'src="1" tgt="1"'),
    _replace("<G ", "<Q "), _replace("  <W", "<W"), _replace("</S>", ""), _replace("</S>", "</S></S>"),
    _replace("</W>", "</W><W ix=\"9\">z</W>"), _replace("<S id", "<?pi x?><S id"),
    _last_line, _repeat_id, _repeat_line, _drop_line,
]

JOINS = [
    lambda lines: "".join(line + "\n" for line in lines),  # canonical
    lambda lines: "\n".join(lines),  # no final newline
    lambda lines: "".join(line + "\n" for line in lines) + "\n",  # doubled final newline
    lambda lines: "".join(line + "\r\n" for line in lines),
    lambda lines: "".join(lines),  # one line
    lambda lines: "\n" + "".join(line + "\n" for line in lines),
    lambda lines: '<?xml version="1.0"?>\n' + "".join(line + "\n" for line in lines),
]


def sharing(annotations) -> list[int]:
    """For each item in document order, the position of the first item that is the same object."""
    items = [x for a in annotations for x in a.constituents + a.relations]
    first: dict[int, int] = {}
    return [first.setdefault(id(x), k) for k, x in enumerate(items)]


def expat_alone(text: str) -> list[SentenceAnnotation]:
    return next(markup._read_expat(0, [text, None], [], set(), functools.cache(markup._item)))


def matcher_reach(text: str, read: list | None = None, size: int = 0) -> int:
    """Where the sentence matcher stops on text, whole or in blocks of size
    characters, adding what it reads to read."""
    blocks = [text[k:k + size] for k in range(0, len(text), size)] if size else [text]
    reader = markup._read_canonical(set(), functools.cache(markup._item))
    next(reader)
    read = [] if read is None else read
    for k, block in enumerate([*blocks, None]):
        try:
            read += reader.send(block)
        except StopIteration as stop:
            _, rest, closed, _ = stop.value
            read += closed
            return len(text) - len(rest) - len("".join(blocks[k + 1:]))


def check_agreement(text: str) -> int:
    """Assert that parse_passage reads text, whole and cut into blocks of 3
    or 7 characters, as expat alone does; return where the matcher stopped."""
    try:
        slow = expat_alone(text)
    except FormatError as exc:
        slow = exc
    for fed in (text, *(iter([text[k:k + n] for k in range(0, len(text), n)]) for n in (3, 7))):
        if isinstance(slow, FormatError):
            with pytest.raises(FormatError) as err:
                parse_passage(fed)
            assert (str(err.value), err.value.line) == (str(slow), slow.line)
        else:
            fast = parse_passage(fed)
            assert fast == slow
            assert sharing(fast) == sharing(slow)
    return matcher_reach(text)


@pytest.mark.parametrize("seed", range(4))
def test_parse_passage_agrees_with_expat_alone(seed):
    rng = random.Random(1200 + seed)
    whole = part = 0
    for _ in range(400):
        lines = canonical_lines(rng)
        for perturb in rng.sample(PERTURBATIONS, rng.choice((0, 1, 1, 2))):
            perturb(rng, lines)
        join = JOINS[0] if rng.random() < 0.5 else rng.choice(JOINS)
        text = join(lines)
        reach = check_agreement(text)
        whole += reach == len(text)
        part += 0 < reach < len(text)
    assert whole > 100 and part > 40  # the generator reaches both readers and the hand-over


@pytest.mark.parametrize("seed", range(4))
def test_serializer_output_free_of_escapes_is_read_whole_by_the_matcher(seed):
    # quoteattr writes tab and LF in an id as character references, so ids go without them
    rng = random.Random(1300 + seed)
    ids = [i for i in PLAIN_IDS if "\t" not in i and "\n" not in i]
    for _ in range(200):
        annotations = []
        for k in range(rng.randint(0, 5)):
            n = rng.randint(1, 6)
            spans = [(s, rng.randint(s + 1, n)) for s in (rng.randrange(n) for _ in range(rng.randint(0, 4)))]
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4) if n > 1 else 0)]
            annotations.append(SentenceAnnotation(
                f"{rng.choice(ids)}{k}",
                tuple(rng.choice(PLAIN_TOKENS) for _ in range(n)),
                tuple(markup.Constituent(rng.choice(list(markup.ConstituentType)), s, e) for s, e in spans),
                tuple(markup.Relation(rng.choice(list(markup.RelationType)), s, t) for s, t in pairs),
                rng.random() < 0.7,
            ))
        text = serialize_passage(annotations)
        read: list = []
        assert matcher_reach(text, read) == len(text)
        assert read == annotations
        assert check_agreement(text) == len(text)
        assert check_agreement(text.rstrip("\n")) == len(text.rstrip("\n"))  # the last line may lack its LF
        # fed in blocks, it is read whole too: a block edge never hands a sentence to expat
        assert all(matcher_reach(text, size=size) == len(text) for size in (1, 3, 7))
        # a CRLF copy is read whole too; no token here starts with LF, so every
        # ">\n" ends a line
        crlf = text.replace(">\n", ">\r\n")
        read = []
        assert matcher_reach(crlf, read) == len(crlf)
        assert read == annotations
        assert check_agreement(crlf) == len(crlf)
        assert all(matcher_reach(crlf, size=size) == len(crlf) for size in (1, 3, 7))


S_A = '<S id="a" full="yes">\n  <W ix="0">le</W>\n</S>\n'
S_B = '<S id="b" full="no">\n  <W ix="0">l\'a</W>\n  <W ix="1">"</W>\n  <G type="GN" start="0" end="2"/>\n</S>'


@pytest.mark.parametrize(
    "read, rest",
    [
        ("", ""),
        (S_A + S_B, ""),
        (S_A, S_B.replace("l'a", "l&amp;a")),
        (S_A, S_B.replace('"b"', "'b'")),
        ("", "\n" + S_A),  # a gap before the first line
        (S_A, "\n"),  # a gap after the last
        (S_A, '<S id="b" full="yes">\n  <W ix="0">le</W>\n'),  # an open sentence
        ("", '  <W ix="0">le</W>\n'),  # a token outside a sentence
        ("", '  <G type="GN" start="0" end="1"/>\n'),
        (S_A, '</S>\n'),
        ("", '<S id="a" full="yes">\n<S id="b" full="yes">\n  <W ix="0">le</W>\n</S>\n</S>\n'),
        (S_A, S_A),  # a repeated id
        (S_A, S_B.replace('end="2"', 'end="3"')),  # a span past the tokens
        (S_A, S_B.replace('ix="1"', 'ix="01"')),
        (S_A, S_B.replace('"GN"', '"ZZ"')),
        (S_A, '<S id="b" full="yes">\n</S>\n'),  # no tokens
        (S_A, '<!-- c -->\n'),
        # line kinds in any order inside <S>
        ('<S id="g" full="yes">\n  <G type="GN" start="0" end="2"/>\n  <W ix="0">le</W>\n'
         '  <W ix="1">chat</W>\n</S>\n', ""),
        ('<S id="r" full="no">\n  <W ix="0">le</W>\n  <R type="SUJ-V" src="1" tgt="0"/>\n'
         '  <W ix="1">chat</W>\n</S>\n', ""),
        (S_A, S_B.replace('end="2"', 'end="x"')),  # a malformed last body line
        # CRLF line ends, but not a lone CR, nor a CR inside a token
        (S_A.replace("\n", "\r\n") + S_B.replace("\n", "\r\n"), ""),
        (S_A.replace("\n", "\r\n"), S_B.replace("\n", "\r", 1)),
        (S_A, S_B.replace("l'a", "l\r\na")),
    ],
)
def test_the_matcher_reads_whole_sentences_up_to_the_first_other(read, rest):
    assert matcher_reach(read + rest) == len(read)
    check_agreement(read + rest)


def test_the_matcher_hands_a_sentence_longer_than_its_carry_to_expat(monkeypatch):
    # a sentence spanning many blocks would be scanned once per block
    monkeypatch.setattr(markup, "_LONGEST", 100)
    long = '<S id="b" full="yes">\n' + "".join(f'  <W ix="{k}">mot</W>\n' for k in range(20)) + "</S>\n"
    assert matcher_reach(S_A + long + S_A.replace('"a"', '"c"'), size=7) == len(S_A)
    assert matcher_reach(S_A + long, size=len(S_A + long)) == len(S_A + long)  # one block: nothing is carried
    check_agreement(S_A + long)
