"""Self-contained C++ frontend for gryphon-analyze.

A tokenizer plus a scope parser that lowers the repo's C++ into the shared
IR without any compiler dependency.  It is not a general C++ parser; it
handles the dialect this codebase is written in (classes, out-of-line
members, constructor init lists, nested types, annotation macros) and is
the authoritative frontend: the clang.cindex frontend produces the same IR
where libclang is available, and the fixture self-tests pin both to the
same verdicts.
"""

from __future__ import annotations

import re
from typing import Optional

from ir import (AllocSite, CallSite, ClassInfo, FileIR, Function, LocalDecl, LockSite, Model,
                MutexDecl, Param)

SUPPRESS_RE = re.compile(r"gryphon-analyze:\s*allow\((\w+)\)")

TOKEN_RE = re.compile(
    r"""(?P<id>[A-Za-z_]\w*)
      | (?P<num>\.?\d(?:[\w.]|'\d|[eEpP][+-])*)
      | (?P<punct>::|->|\+\+|--|<<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=
                 |\.\.\.|[{}()\[\];:,.<>+\-*/%&|^!~=?])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char", "class", "concept",
    "const", "const_cast", "consteval", "constexpr", "constinit", "continue", "decltype",
    "default", "delete", "do", "double", "dynamic_cast", "else", "enum", "explicit", "extern",
    "false", "float", "for", "friend", "goto", "if", "inline", "int", "long", "mutable",
    "namespace", "new", "noexcept", "nullptr", "operator", "private", "protected", "public",
    "register", "reinterpret_cast", "requires", "return", "short", "signed", "sizeof", "static",
    "static_assert", "static_cast", "struct", "switch", "template", "this", "thread_local",
    "throw", "true", "try", "typedef", "typeid", "typename", "union", "unsigned", "using",
    "virtual", "void", "volatile", "while",
}

ANNOTATION_MACROS = {
    "CAPABILITY", "SCOPED_CAPABILITY", "GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_BEFORE",
    "ACQUIRED_AFTER", "REQUIRES", "REQUIRES_SHARED", "ACQUIRE", "ACQUIRE_SHARED", "RELEASE",
    "RELEASE_SHARED", "RELEASE_GENERIC", "TRY_ACQUIRE", "TRY_ACQUIRE_SHARED", "EXCLUDES",
    "ASSERT_CAPABILITY", "ASSERT_SHARED_CAPABILITY", "RETURN_CAPABILITY",
    "NO_THREAD_SAFETY_ANALYSIS", "GRYPHON_THREAD_ANNOTATION",
}

GUARD_TYPES = {"MutexLock", "MutexUniqueLock"}

QUALIFIER_TOKENS = {"const", "noexcept", "override", "final", "mutable", "volatile", "&", "&&",
                    "*", "->", "::", "<", ">", ",", "inline", "constexpr", "try"}

ALLOC_CALLS = {"malloc", "calloc", "realloc", "strdup", "aligned_alloc", "make_shared",
               "make_unique"}
GROW_METHODS = {"push_back", "emplace_back", "push_front", "emplace_front", "resize", "reserve",
                "insert", "emplace", "emplace_hint", "assign", "append", "operator+="}
ALLOC_ALGOS = {"stable_sort", "stable_partition", "inplace_merge"}

NON_CALL_BEFORE_PAREN = KEYWORDS | ANNOTATION_MACROS | GUARD_TYPES


# ---------------------------------------------------------------------------
# Stripping and tokenizing
# ---------------------------------------------------------------------------


def strip_and_tokenize(text: str):
    """Remove comments, strings, and preprocessor lines; return
    (tokens, suppressions, code_lines).  Suppressions are collected from
    comment text before it is discarded."""
    suppressions: list[tuple[int, str]] = []
    out: list[str] = []
    i, n = 0, len(text)
    line = 1
    at_line_start = True

    def blank_preprocessor(j: int) -> int:
        nonlocal line
        while j < n:
            c = text[j]
            if c == "\\" and j + 1 < n and text[j + 1] == "\n":
                out.append("\n")
                line += 1
                j += 2
                continue
            if c == "\n":
                return j
            out.append(" ")
            j += 1
        return j

    while i < n:
        c = text[i]
        if at_line_start:
            j = i
            while j < n and text[j] in " \t":
                j += 1
            if j < n and text[j] == "#":
                out.append(" " * (j - i))
                i = blank_preprocessor(j)
                at_line_start = False
                continue
        at_line_start = False
        if c == "\n":
            out.append("\n")
            line += 1
            i += 1
            at_line_start = True
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            for m in SUPPRESS_RE.finditer(text[i:j]):
                suppressions.append((line, m.group(1)))
            out.append(" " * (j - i))
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            seg = text[i:j]
            seg_line = line
            for off_line, part in enumerate(seg.split("\n")):
                for m in SUPPRESS_RE.finditer(part):
                    suppressions.append((seg_line + off_line, m.group(1)))
            out.append(re.sub(r"[^\n]", " ", seg))
            line += seg.count("\n")
            i = j
            continue
        if c == '"':
            if out and text[i - 1] == "R":  # raw string R"delim( ... )delim"
                m = re.match(r'R"([^(]*)\(', text[i - 1:])
                if m:
                    end = text.find(")" + m.group(1) + '"', i)
                    end = n if end < 0 else end + len(m.group(1)) + 2
                    seg = text[i:end]
                    out.append(re.sub(r"[^\n]", " ", seg))
                    line += seg.count("\n")
                    i = end
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append('""' + " " * (j - i - 2))
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append("''" + " " * (j - i - 2))
            i = j
            continue
        out.append(c)
        i += 1

    stripped = "".join(out)
    tokens: list[tuple[str, str, int]] = []
    code_lines: set = set()
    for lineno, linetext in enumerate(stripped.split("\n"), start=1):
        for m in TOKEN_RE.finditer(linetext):
            kind = m.lastgroup or "punct"
            tokens.append((kind, m.group(0), lineno))
            code_lines.add(lineno)
    return tokens, suppressions, code_lines


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, path: str, tokens: list[tuple[str, str, int]], model: Model) -> None:
        self.path = path
        self.toks = tokens
        self.n = len(tokens)
        self.model = model
        self.i = 0

    # -- token helpers ------------------------------------------------------

    def _t(self, j: int) -> str:
        return self.toks[j][1] if 0 <= j < self.n else ""

    def _kind(self, j: int) -> str:
        return self.toks[j][0] if 0 <= j < self.n else ""

    def _line(self, j: int) -> int:
        return self.toks[j][2] if 0 <= j < self.n else 0

    def _match_group(self, j: int, open_tok: str, close_tok: str) -> int:
        """Given toks[j] == open_tok, return the index after the matching
        close token."""
        depth = 0
        while j < self.n:
            t = self._t(j)
            if t == open_tok:
                depth += 1
            elif t == close_tok:
                depth -= 1
                if depth == 0:
                    return j + 1
            j += 1
        return self.n

    def _skip_angles(self, j: int) -> int:
        """Skip a template argument list starting at `<`."""
        depth = 0
        while j < self.n:
            t = self._t(j)
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return j + 1
            elif t in (";", "{"):
                return j  # bail: not a template list after all
            j += 1
        return self.n

    # -- top-level / scope parsing ------------------------------------------

    def parse(self) -> None:
        self._scope(cls=None, stop_at_brace=False)

    def _scope(self, cls: Optional[ClassInfo], stop_at_brace: bool) -> None:
        while self.i < self.n:
            t = self._t(self.i)
            if t == "}":
                self.i += 1
                if stop_at_brace:
                    return
                continue
            if t == ";":
                self.i += 1
                continue
            if t == "namespace":
                self.i += 1
                while self._kind(self.i) == "id" or self._t(self.i) == "::":
                    self.i += 1
                if self._t(self.i) == "{":
                    self.i += 1
                    self._scope(cls=None, stop_at_brace=True)
                else:  # namespace alias
                    while self.i < self.n and self._t(self.i) != ";":
                        self.i += 1
                continue
            if t == "enum":
                self._parse_enum(cls)
                continue
            if t == "template":
                self.i += 1
                if self._t(self.i) == "<":
                    self.i = self._skip_angles(self.i)
                continue
            if t in ("public", "private", "protected") and self._t(self.i + 1) == ":":
                self.i += 2
                continue
            if t in ("using", "typedef", "static_assert"):
                while self.i < self.n and self._t(self.i) != ";":
                    if self._t(self.i) == "{":
                        self.i = self._match_group(self.i, "{", "}")
                        continue
                    self.i += 1
                continue
            if t in ("class", "struct", "union") and self._is_class_definition():
                self._parse_class(cls)
                continue
            self._parse_declaration(cls)

    def _is_class_definition(self) -> bool:
        """Distinguish `class X { ... }` from `class X;` and `struct X v;`."""
        j = self.i + 1
        while self._kind(j) == "id" or self._t(j) in ("::", "final"):
            j += 1
        if self._t(j) == "<":
            j = self._skip_angles(j)
        if self._t(j) == ":":  # base clause
            while j < self.n and self._t(j) not in ("{", ";"):
                if self._t(j) == "<":
                    j = self._skip_angles(j)
                    continue
                j += 1
        return self._t(j) == "{"

    def _parse_class(self, outer: Optional[ClassInfo]) -> None:
        line = self._line(self.i)
        self.i += 1  # class/struct/union
        name = None
        while self._kind(self.i) == "id" and self._t(self.i) not in ("final",):
            name = self._t(self.i)
            self.i += 1
            if self._t(self.i) == "::":
                self.i += 1
                continue
            break
        if self._t(self.i) == "final":
            self.i += 1
        bases: list[str] = []
        if self._t(self.i) == ":":
            self.i += 1
            while self.i < self.n and self._t(self.i) != "{":
                if self._t(self.i) == "<":
                    self.i = self._skip_angles(self.i)
                    continue
                if self._kind(self.i) == "id" and self._t(self.i) not in (
                        "public", "private", "protected", "virtual", "std"):
                    # The last identifier of each base path wins.
                    if self._t(self.i + 1) in (",", "{", "<"):
                        bases.append(self._t(self.i))
                self.i += 1
        if self._t(self.i) != "{":
            while self.i < self.n and self._t(self.i) != ";":
                self.i += 1
            return
        qual = f"{outer.name}::{name}" if (outer and name) else (name or f"<anon>@{line}")
        info = ClassInfo(name=qual, file=self.path, line=line, bases=bases)
        self.i += 1  # {
        self._scope(cls=info, stop_at_brace=True)
        self.model.add_class(info)
        while self.i < self.n and self._t(self.i) != ";":  # `} name;` declarators
            self.i += 1

    def _parse_enum(self, cls: Optional[ClassInfo]) -> None:
        self.i += 1  # enum
        if self._t(self.i) in ("class", "struct"):
            self.i += 1
        name = None
        if self._kind(self.i) == "id":
            name = self._t(self.i)
            self.i += 1
        if self._t(self.i) == ":":  # underlying type
            while self.i < self.n and self._t(self.i) not in ("{", ";"):
                self.i += 1
        if self._t(self.i) != "{":
            while self.i < self.n and self._t(self.i) != ";":
                self.i += 1
            return
        self.i += 1
        enumerators: list[tuple[str, int]] = []
        value = -1
        while self.i < self.n and self._t(self.i) != "}":
            if self._kind(self.i) == "id":
                ename = self._t(self.i)
                self.i += 1
                if self._t(self.i) == "=":
                    self.i += 1
                    expr: list[str] = []
                    while self.i < self.n and self._t(self.i) not in (",", "}"):
                        expr.append(self._t(self.i))
                        self.i += 1
                    try:
                        value = int("".join(expr), 0)
                    except ValueError:
                        value += 1
                else:
                    value += 1
                enumerators.append((ename, value))
            else:
                self.i += 1
        self.i += 1  # }
        if name:
            key = f"{cls.name}::{name}" if cls else name
            self.model.enums[key] = enumerators
            self.model.enums.setdefault(name, enumerators)

    # -- declarations -------------------------------------------------------

    def _parse_declaration(self, cls: Optional[ClassInfo]) -> None:
        """Parse one class/namespace-scope declaration: a member variable, a
        method/function declaration, or a definition with a body."""
        start = self.i
        declarator: Optional[str] = None
        decl_chain: list[str] = []
        decl_line = self._line(self.i)
        params_start = params_end = -1
        requires: list[str] = []
        macro_args: dict[str, list[str]] = {}
        after_params = False

        while self.i < self.n:
            t = self._t(self.i)
            if t == "[" and self._t(self.i + 1) == "[":  # [[nodiscard]] etc.
                self.i = self._match_group(self.i, "[", "]")
                if self._t(self.i) == "]":
                    self.i += 1
                continue
            if t == "<" and not after_params:
                nxt = self._skip_angles(self.i)
                if nxt > self.i + 1:
                    self.i = nxt
                    continue
                self.i += 1
                continue
            if t == "(":
                prev = self._t(self.i - 1)
                prev_kind = self._kind(self.i - 1)
                group_end = self._match_group(self.i, "(", ")")
                if prev in ANNOTATION_MACROS:
                    args = [self._t(j) for j in range(self.i + 1, group_end - 1)
                            if self._kind(j) == "id"]
                    macro_args.setdefault(prev, []).extend(args)
                    if prev in ("REQUIRES", "REQUIRES_SHARED"):
                        requires.extend(args)
                    self.i = group_end
                    continue
                if declarator is None and prev_kind == "id" and prev not in NON_CALL_BEFORE_PAREN:
                    declarator = prev
                    decl_line = self._line(self.i - 1)
                    j = self.i - 1
                    if self._t(j - 1) == "~":  # destructor
                        declarator = "~" + declarator
                        j -= 1
                    chain: list[str] = []
                    while self._t(j - 1) == "::" and self._kind(j - 2) == "id":
                        chain.insert(0, self._t(j - 2))
                        j -= 2
                    decl_chain = chain
                    params_start, params_end = self.i, group_end
                    self.i = group_end
                    after_params = True
                    continue
                if declarator is None and prev == "operator" or (
                        declarator is None and self._t(self.i - 2) == "operator"):
                    declarator = "operator" + (prev if prev != "operator" else "()")
                    decl_line = self._line(self.i - 1)
                    params_start, params_end = self.i, group_end
                    self.i = group_end
                    after_params = True
                    continue
                self.i = group_end
                continue
            if t == ":" and after_params and self._t(self.i + 1) != ":":
                # Constructor initializer list.
                self.i += 1
                self._skip_init_list()
                if self._t(self.i) == "{":
                    self._finish_function(declarator, decl_chain, decl_line, start,
                                          params_start, params_end, requires, cls)
                    return
                continue
            if t == "{":
                if declarator is not None and after_params:
                    self._finish_function(declarator, decl_chain, decl_line, start,
                                          params_start, params_end, requires, cls)
                    return
                self.i = self._match_group(self.i, "{", "}")  # brace initializer
                continue
            if t == ";":
                stmt = list(range(start, self.i))
                self.i += 1
                if declarator is not None:
                    if cls is not None:
                        cls.methods.add(declarator)
                        if requires:
                            cls.method_requires.setdefault(declarator, requires)
                else:
                    self._parse_member(stmt, cls, macro_args)
                return
            if t == "=":
                # `= default`, `= delete`, `= 0`, or a member initializer.
                self.i += 1
                continue
            self.i += 1
        # EOF fallthrough

    def _skip_init_list(self) -> None:
        """Consume a ctor init list; stop with self.i at the body `{`."""
        while self.i < self.n:
            while self._kind(self.i) == "id" or self._t(self.i) == "::":
                self.i += 1
            if self._t(self.i) == "<":
                self.i = self._skip_angles(self.i)
                continue
            if self._t(self.i) == "(":
                self.i = self._match_group(self.i, "(", ")")
            elif self._t(self.i) == "{":
                # `{` directly after an identifier is a member brace-init;
                # otherwise it is the constructor body.
                if self._kind(self.i - 1) == "id" or self._t(self.i - 1) in (">", "::"):
                    self.i = self._match_group(self.i, "{", "}")
                else:
                    return
            if self._t(self.i) == ",":
                self.i += 1
                continue
            if self._t(self.i) == "{":
                return
            if self._t(self.i) in (";", "}"):
                return
            self.i += 1

    def _parse_member(self, stmt: list[int], cls: Optional[ClassInfo],
                      macro_args: dict[str, list[str]]) -> None:
        toks = [(self._t(j), self._line(j)) for j in stmt]
        words = [t for t, _ in toks]
        if not words or words[0] in ("friend", "using", "typedef", "extern"):
            return
        if "Mutex" in words:
            mi = words.index("Mutex")
            if mi + 1 < len(words) and re.match(r"[A-Za-z_]\w*$", words[mi + 1]):
                decl = MutexDecl(
                    name=words[mi + 1],
                    cls=cls.name if cls else None,
                    file=self.path,
                    line=toks[mi][1],
                    acquired_before=macro_args.get("ACQUIRED_BEFORE", []),
                    acquired_after=macro_args.get("ACQUIRED_AFTER", []),
                )
                if cls is not None:
                    cls.mutexes[decl.name] = decl
                else:
                    self.model.global_mutexes.append(decl)
                return
        if cls is None:
            return
        # Field: strip trailing initializer and annotation macros, the last
        # identifier left is the name.
        end = len(words)
        depth = 0
        cut = end
        for j in range(end):
            t = words[j]
            if t in "([{":
                depth += 1
            elif t in ")]}":
                depth -= 1
            elif t == "=" and depth == 0:
                cut = j
                break
        words = words[:cut]
        toks = toks[:cut]
        # Drop annotation-macro groups and brace initializers from the tail.
        j = len(words)
        while j > 0:
            if words[j - 1] in ("}",):
                depth = 0
                k = j - 1
                while k >= 0:
                    if words[k] == "}":
                        depth += 1
                    elif words[k] == "{":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                j = k
                continue
            if words[j - 1] == ")":
                depth = 0
                k = j - 1
                while k >= 0:
                    if words[k] == ")":
                        depth += 1
                    elif words[k] == "(":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                if k > 0 and words[k - 1] in ANNOTATION_MACROS:
                    j = k - 1
                    continue
                break
            break
        words = words[:j]
        toks = toks[:j]
        name = None
        for k in range(len(words) - 1, -1, -1):
            if re.match(r"[A-Za-z_]\w*$", words[k]) and words[k] not in KEYWORDS:
                name = words[k]
                type_tokens = [w for w in words[:k] if w not in ("static", "constexpr", "inline",
                                                                "mutable", "const")]
                break
        if name and cls is not None and name not in cls.fields:
            cls.fields[name] = type_tokens
            cls.field_order.append(name)

    # -- function bodies ----------------------------------------------------

    def _finish_function(self, declarator: str, chain: list[str], line: int, start: int,
                         params_start: int, params_end: int, requires: list[str],
                         cls: Optional[ClassInfo]) -> None:
        fn = Function(name=declarator, file=self.path, line=line)
        fn.qualifier_chain = chain
        if cls is not None:
            fn.cls = cls.name
            cls.methods.add(declarator)
        fn.requires = list(requires)
        fn.return_type_tokens = [
            self._t(j) for j in range(start, max(start, params_start - 1 - 2 * len(chain)))
            if self._kind(j) == "id" and self._t(j) not in KEYWORDS
        ]
        if params_start >= 0:
            self._parse_params(fn, params_start, params_end)
        body_start = self.i
        body_end = self._match_group(self.i, "{", "}")
        self._analyze_body(fn, body_start + 1, body_end - 1)
        self.i = body_end
        self.model.functions.append(fn)

    def _parse_params(self, fn: Function, start: int, end: int) -> None:
        """`start` indexes `(`, `end` is one past `)`."""
        groups: list[list[int]] = [[]]
        depth = 0
        for j in range(start + 1, end - 1):
            t = self._t(j)
            if t in "([{" or t == "<":
                depth += 1
            elif t in ")]}" or t == ">":
                depth -= 1
            elif t == ">>":
                depth -= 2
            elif t == "," and depth <= 0:
                groups.append([])
                continue
            groups[-1].append(j)
        for g in groups:
            if not g:
                continue
            words = [self._t(j) for j in g]
            name = None
            for k in range(len(words) - 1, -1, -1):
                if re.match(r"[A-Za-z_]\w*$", words[k]) and words[k] not in KEYWORDS:
                    name = words[k]
                    break
            if name is None:
                continue
            type_tokens = [w for w in words[:k] if re.match(r"[A-Za-z_]\w*$", w)
                           and w not in ("const", "struct", "class", "typename")]
            by_value = "&" not in words[:k + 1] and "*" not in words[:k + 1] and \
                       "&&" not in words[:k + 1]
            fn.params.append(Param(name=name, type_tokens=type_tokens, by_value=by_value,
                                   line=self._line(g[0])))

    def _analyze_body(self, fn: Function, start: int, end: int) -> None:
        depth = 0
        j = start
        pending_lambda: set = set()  # indices of `{` tokens that open lambda bodies
        lambda_depths: list[int] = []
        while j < end:
            kind, t, line = self.toks[j]
            if t == "[" and self._t(j - 1) not in (")", "]") and self._kind(j - 1) != "id":
                # Lambda introducer: `[caps] (params)? specifiers? { ... }`.
                b = self._match_group(j, "[", "]")
                if self._t(b) == "(":
                    b = self._match_group(b, "(", ")")
                steps = 0
                while b < end and steps < 12 and self._t(b) not in ("{", ";", ")", ","):
                    if self._t(b) == "<":
                        b = self._skip_angles(b)
                        continue
                    b += 1
                    steps += 1
                if self._t(b) == "{":
                    pending_lambda.add(b)
            if t == "{":
                depth += 1
                if j in pending_lambda:
                    lambda_depths.append(depth)
                j += 1
                continue
            if t == "}":
                depth -= 1
                if lambda_depths and lambda_depths[-1] == depth + 1:
                    lambda_depths.pop()
                fn.events.append(("close", depth, line))
                j += 1
                continue
            if t == "new":
                fn.allocs.append(AllocSite(kind="new", detail="operator new", line=line))
                fn.token_seq.append((t, line))
                j += 1
                continue
            if kind == "id":
                fn.token_seq.append((t, line))
                fn.idents.setdefault(t, line)

                # Guard declarations: MutexLock lock(expr);
                if t in GUARD_TYPES and self._kind(j + 1) == "id" and self._t(j + 2) == "(":
                    gvar = self._t(j + 1)
                    gend = self._match_group(j + 2, "(", ")")
                    expr = [self._t(k) for k in range(j + 3, gend - 1) if self._kind(k) == "id"]
                    site = LockSite(kind="guard", target=expr, guard_var=gvar, depth=depth,
                                    line=line)
                    fn.locks.append(site)
                    fn.events.append(("lock", site))
                    for k in range(j + 3, gend - 1):
                        if self._kind(k) == "id":
                            fn.token_seq.append((self._t(k), self._line(k)))
                            fn.idents.setdefault(self._t(k), self._line(k))
                    j = gend
                    continue

                # Local declarations: Type name(=|(|{|;|:)
                consumed = self._try_local_decl(fn, j, end, depth, bool(lambda_depths))
                if consumed:
                    j = consumed
                    continue

                # Calls: identifier followed by `(`.
                if self._t(j + 1) == "(" and t not in NON_CALL_BEFORE_PAREN:
                    call = self._make_call(fn, j, depth)
                    if call is not None:
                        call.in_lambda = bool(lambda_depths)
                        if call.name in ("lock", "unlock", "try_lock") and call.receiver_chain:
                            site = LockSite(kind="unlock" if call.name == "unlock" else "lock",
                                            target=list(call.receiver_chain), guard_var=None,
                                            depth=depth, line=line)
                            fn.locks.append(site)
                            fn.events.append(("lock", site))
                        else:
                            fn.calls.append(call)
                            fn.events.append(("call", call))
                            self._record_alloc_for_call(fn, call, line)
                j += 1
                continue
            if kind != "id":
                fn.token_seq.append((t, line))
            j += 1

    def _record_alloc_for_call(self, fn: Function, call: CallSite, line: int) -> None:
        if call.name in ALLOC_CALLS:
            fn.allocs.append(AllocSite(kind="call", detail=call.name, line=line))
        elif call.name in ALLOC_ALGOS:
            fn.allocs.append(AllocSite(kind="algorithm", detail=call.name, line=line))
        elif call.name in GROW_METHODS and (call.receiver_chain or call.explicit_chain):
            recv = ".".join(call.receiver_chain) or "::".join(call.explicit_chain)
            fn.allocs.append(AllocSite(kind="grow", detail=f"{recv}.{call.name}", line=line))

    def _try_local_decl(self, fn: Function, j: int, end: int, depth: int,
                        in_lambda: bool = False) -> Optional[int]:
        """Recognize `[const] Type [*&]* name (init)` at a statement start.
        Returns the index just past the declared name (so the initializer is
        still scanned for calls), or None."""
        prev = self._t(j - 1)
        prev2 = self._t(j - 2)
        stmt_start = prev in (";", "{", "}") or \
            (prev == "const" and prev2 in (";", "{", "}", "(")) or \
            (prev == "(" and prev2 in ("for", "if", "while", "switch"))
        if not stmt_start:
            return None
        t = self._t(j)
        if t in KEYWORDS and t != "auto":
            return None
        # Scan type tokens.
        k = j
        type_tokens: list[str] = []
        while k < end:
            tk = self._t(k)
            if self._kind(k) == "id" and tk not in KEYWORDS:
                type_tokens.append(tk)
                k += 1
            elif tk == "auto" or tk == "const":
                k += 1
            elif tk == "::":
                k += 1
            elif tk == "<":
                close = self._skip_angles(k)
                for m in range(k, close):
                    if self._kind(m) == "id":
                        type_tokens.append(self._t(m))
                k = close
            elif tk in ("*", "&", "&&"):
                k += 1
            else:
                break
        if k <= j or k >= end or len(type_tokens) < 1:
            return None
        # The declared name is the LAST identifier scanned; everything before
        # it is the type.  Need at least type + name, or `auto name`.
        name = type_tokens[-1] if type_tokens else None
        had_auto = "auto" in [self._t(m) for m in range(j, k)]
        if name is None:
            return None
        if len(type_tokens) < 2 and not had_auto:
            return None
        terminator = self._t(k)
        if terminator not in ("=", "(", "{", ";", ":"):
            return None
        if terminator == "(" and len(type_tokens) < 2:
            return None  # `name(...)` alone is a call, not a decl
        tokens_before_name = type_tokens[:-1]
        has_init = terminator in ("=", "(", "{")
        init_call = None
        if terminator == "=" and self._kind(k + 1) == "id" and self._t(k + 2) == "(":
            init_call = self._t(k + 1)
        elif terminator == "=":
            # `auto x = make_kernel(...)` / `auto x = ns::call(...)`: find
            # the last identifier before the first `(` of the initializer.
            # Member-access initializers (`auto it = map_.find(...)`) are
            # skipped: the callee is almost always a std container method
            # whose return type would mistype the local.
            m = k + 1
            last_id = None
            last_id_member = False
            while m < end and self._t(m) not in (";", ","):
                if self._kind(m) == "id":
                    last_id = self._t(m)
                    last_id_member = self._t(m - 1) in (".", "->")
                elif self._t(m) == "(":
                    if not last_id_member:
                        init_call = last_id
                    break
                m += 1
        by_value = not any(self._t(m) in ("*", "&", "&&") for m in range(j, k))
        decl = LocalDecl(name=name, type_tokens=tokens_before_name, has_init=has_init,
                         init_call=init_call, line=self._line(k - 1), by_value=by_value)
        fn.locals.setdefault(name, decl)
        if terminator == "(" and tokens_before_name:
            # `Type var(args)`: record a constructor pseudo-call.
            call = CallSite(name=tokens_before_name[-1], line=self._line(j), depth=depth,
                            is_construct=True, in_lambda=in_lambda)
            fn.calls.append(call)
            fn.events.append(("call", call))
        for m in range(j, k):
            if self._kind(m) == "id":
                fn.token_seq.append((self._t(m), self._line(m)))
                fn.idents.setdefault(self._t(m), self._line(m))
        return k

    def _make_call(self, fn: Function, j: int, depth: int) -> Optional[CallSite]:
        name = self._t(j)
        line = self._line(j)
        prev = self._t(j - 1)
        call = CallSite(name=name, line=line, depth=depth)
        if prev == "::":
            chain: list[str] = []
            k = j
            while self._t(k - 1) == "::" and self._kind(k - 2) == "id":
                chain.insert(0, self._t(k - 2))
                k -= 2
            call.explicit_chain = chain
            return call
        if prev in (".", "->"):
            chain = []
            k = j - 1
            while k > 0 and self._t(k) in (".", "->"):
                k -= 1
                if self._t(k) == "]":
                    dd = 0
                    while k >= 0:
                        if self._t(k) == "]":
                            dd += 1
                        elif self._t(k) == "[":
                            dd -= 1
                            if dd == 0:
                                break
                        k -= 1
                    k -= 1
                if self._t(k) == ")":
                    dd = 0
                    while k >= 0:
                        if self._t(k) == ")":
                            dd += 1
                        elif self._t(k) == "(":
                            dd -= 1
                            if dd == 0:
                                break
                        k -= 1
                    k -= 1
                if self._kind(k) != "id":
                    break
                elem = self._t(k)
                if elem == "this":
                    call.receiver_is_this = True
                    break
                chain.insert(0, elem)
                k -= 1
                if self._t(k) not in (".", "->"):
                    break
            call.receiver_chain = chain
            return call
        return call


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_into(model: Model, rel_path: str, text: str) -> None:
    tokens, suppressions, code_lines = strip_and_tokenize(text)
    fir = FileIR(path=rel_path, tokens=tokens, suppressions=suppressions,
                 code_lines=code_lines)
    model.files[rel_path] = fir
    _Parser(rel_path, tokens, model).parse()


def build_model(root: str, rel_paths: list[str]) -> Model:
    import os

    model = Model()
    for rel in rel_paths:
        full = os.path.join(root, rel)
        try:
            with open(full, "r", encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError:
            continue
        parse_into(model, rel, text)
    model.finalize()
    return model
