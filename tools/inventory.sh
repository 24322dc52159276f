#!/usr/bin/env bash
# Caller, reader and constructor inventory: ROADMAP item 6's standing check.
#
# Production text is every file under crates/*/src, src/, examples/ and
# benchmark/src, cut at its first #[cfg(test)], with comment lines dropped.
# The script prints one line, `kind path name`, per candidate:
#
#   fn       a crate `pub fn` with no call (`.name(`) or path (`Type::name`,
#            `module::name`) on a production line other than its definition
#            and other than the body of a fn of the same name (delegation);
#   field    a named field of a crate struct with no production read: a
#            `.name` that is not an assignment (`=`, `+=`, ...) or a
#            push/extend/clear/insert/fetch_add on it;
#   variant  a variant of a crate `pub enum` that no production line
#            constructs: every `Enum::Variant` (or `Self::Variant` in the
#            enum's file) is a match pattern — followed by `=>`, `|` or a
#            guard, or inside `matches!`, `if let` or `let ... else`.
#
# It prints candidates, not verdicts. Known false positives: a field read
# only by destructuring (`let Self { stage, .. } = self`), a counter whose
# `fetch_add` result is used, an RAII `_guard`, a fn called only from
# inside another type's fn of the same name. Known misses: a name shared
# with another type's called method or read field (`.len(`, `.members`;
# `ShardPlan::shard_of` hid behind `NeighborCache`'s private
# `Self::shard_of`, `VexusBuilder::groups` behind the accessor
# `Vexus::groups`) outside a fn of that name, a variant constructed
# through a glob import, and state read only to keep itself up to date.
#
# Usage, from anywhere in the repository:
#   tools/inventory.sh          print the candidates
#   tools/inventory.sh --check  fail on a candidate tools/inventory-exempt.txt
#                               does not list, or on an exemption nothing prints
set -euo pipefail
cd "$(dirname "$0")/.."
out=target/inventory
mkdir -p "$out"

# 1. Production text, one "path:line:content" per line.
git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' 'src/**/*.rs' \
    'examples/*.rs' 'benchmark/src/*.rs' 'benchmark/src/**/*.rs' | sort -u |
  while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print f":"FNR":"$0}' "$f"
  done > "$out/prod.txt"

# 2. Functions. A call on a line inside a fn of the same name is that fn
#    handing off to its namesake (`Vexus::overlap_graph` calling
#    `GroupIndex::overlap_graph`), not a caller, so each production line is
#    first tagged `path:line fn` with the fn it sits in (rustfmt layout: a
#    fn opens on its `fn` line and closes at a `}` on the same indent).
awk '
  {
    split($0, p, ":"); key = p[1] ":" p[2]; text = substr($0, length(key) + 2)
    if (p[1] != file) { file = p[1]; depth = 0 }
    match(text, /^ */); ind = RLENGTH
    if (depth > 0 && ind <= indent[depth] && text ~ /^ *}/)
      while (depth > 0 && indent[depth] >= ind) depth--
    else if (depth > 0 && ind == indent[depth] && text ~ /^ *\).*; *$/)
      depth--
    if (match(text, /^ *(pub(\([a-z]+\))? )?((const|async|unsafe) )*fn [a-z_0-9]+/)) {
      name = substr(text, RSTART, RLENGTH); sub(/.* /, "", name)
      print key " " name
      if (text !~ /[;}] *$/) { depth++; indent[depth] = ind; names[depth] = name }
      next
    }
    print key " " (depth > 0 ? names[depth] : "-")
  }' "$out/prod.txt" > "$out/owners.txt"
grep -E '^crates/[^:]*:[0-9]+:[[:space:]]*pub fn [a-z_0-9]+' "$out/prod.txt" |
  sed -E 's/^([^:]*):[0-9]+:[[:space:]]*pub fn ([a-z_0-9]+).*/\1 \2/' |
  while read -r at name; do
    n=$(grep -E "\.$name(::<.*>)?\(|::$name\b|(^|[^a-z_0-9.:])$name\(" "$out/prod.txt" |
        grep -vE "fn $name\b|^[^:]*:[0-9]+:[[:space:]]*(pub )?use " | cut -d: -f1,2 |
        grep -cvxF -f <(grep " $name\$" "$out/owners.txt" | cut -d' ' -f1) || true)
    if [ "$n" = 0 ]; then echo "fn $at $name"; fi
  done > "$out/fns.txt"

# 3. Fields.
awk '
  match($0, /^[^:]*:[0-9]+:[[:space:]]*(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]+(<[^>]*>)?[[:space:]]*\{[[:space:]]*$/) { inside=1; next }
  inside && /^[^:]*:[0-9]+:[[:space:]]*}/ { inside=0; next }
  inside && match($0, /^[^:]*:[0-9]+:[[:space:]]*(pub(\([a-z]+\))? )?[a-z_0-9]+:/) {
    line=$0; sub(/^[^:]*:[0-9]+:[[:space:]]*(pub(\([a-z]+\))? )?/, "", line); sub(/:.*/, "", line)
    split($0, p, ":"); print p[1]" "line
  }' <(grep '^crates/' "$out/prod.txt") |
  while read -r at name; do
    n=$(grep -E "\.$name\b" "$out/prod.txt" |
        grep -cvE "\.$name[[:space:]]*([-+|&*]?=[^=]|\.(push|extend|extend_from_slice|clear|insert|truncate|resize|fetch_add|store)\()" || true)
    if [ "$n" = 0 ]; then echo "field $at $name"; fi
  done > "$out/fields.txt"

# 4. Enum variants.
awk '
  {
    n++
    path[n] = $0; sub(/:.*/, "", path[n])
    text[n] = substr($0, length(path[n]) + 2); sub(/^[0-9]+:/, "", text[n])
    # String literals never name a variant.
    gsub(/"([^"\\]|\\.)*"/, "\"\"", text[n])
  }
  function indent(s) { match(s, /^ */); return RLENGTH }
  # The text after the bracketed group that opens at `s` (line i), read
  # across lines of the same file; `s` itself when nothing opens there.
  function after_group(s, i,    depth, j, k, c, rest) {
    if (s !~ /^[ \t]*[({]/) return s
    depth = 0
    for (j = i; j <= n && j < i + 60 && path[j] == path[i]; j++) {
      if (j > i) s = text[j]
      for (k = 1; k <= length(s); k++) {
        c = substr(s, k, 1)
        if (c == "{" || c == "(" || c == "[") depth++
        else if (c == "}" || c == ")" || c == "]") {
          depth--
          if (depth == 0) {
            rest = substr(s, k + 1)
            if (rest ~ /^[ \t]*$/ && j < n && path[j + 1] == path[i]) rest = text[j + 1]
            return rest
          }
        }
      }
    }
    return ""
  }
  function is_pattern(pre, post, i,    last, tmp) {
    if (pre ~ /matches!\(/) return 1
    if (i > 1 && path[i - 1] == path[i] && text[i - 1] ~ /matches!\([^)]*$/) return 1
    tmp = pre; last = ""
    while (match(tmp, /(^|[^A-Za-z0-9_])let[ \t]/)) { tmp = substr(tmp, RSTART + RLENGTH); last = tmp; found = 1 }
    if (found && last !~ /=/) { found = 0; return 1 }
    found = 0
    return post ~ /^[ \t]*(=>|\|[^|]|\|$|if[ \t]|@)/
  }
  END {
    # The variants of every crate `pub enum`.
    for (i = 1; i <= n; i++) {
      if (path[i] !~ /^crates\// || text[i] !~ /^[ \t]*pub enum [A-Za-z0-9_]+/) continue
      name = text[i]; sub(/^[ \t]*pub enum /, "", name); sub(/[^A-Za-z0-9_].*/, "", name)
      ind = indent(text[i])
      for (j = i + 1; j <= n && path[j] == path[i]; j++) {
        if (indent(text[j]) == ind && text[j] ~ /^ *}/) break
        if (indent(text[j]) != ind + 4 || text[j] !~ /^ *[A-Z][A-Za-z0-9_]*([ ({,=]|$)/) continue
        v = text[j]; sub(/^ */, "", v); sub(/[^A-Za-z0-9_].*/, "", v)
        variants[name SUBSEP v] = path[i]
        in_file[path[i] SUBSEP v] = in_file[path[i] SUBSEP v] " " name
        order[++nv] = name SUBSEP v
      }
    }
    # Mark every variant some production line constructs.
    for (i = 1; i <= n; i++) {
      if (text[i] ~ /^[ \t]*(pub )?use /) continue
      s = text[i]; pre = ""
      while (match(s, /(Self|[A-Z][A-Za-z0-9_]*)::[A-Z][A-Za-z0-9_]*/)) {
        tok = substr(s, RSTART, RLENGTH)
        pre = pre substr(s, 1, RSTART - 1)
        s = substr(s, RSTART + RLENGTH)
        split(tok, t, "::")
        if (pre ~ /[A-Za-z0-9_]$/ || s ~ /^::/) { pre = pre tok; continue }
        if (t[1] == "Self") owners = in_file[path[i] SUBSEP t[2]]
        else owners = ((t[1] SUBSEP t[2]) in variants) ? t[1] : ""
        if (owners != "" && !is_pattern(pre, after_group(s, i), i)) {
          k = split(owners, o, " ")
          for (m = 1; m <= k; m++) built[o[m] SUBSEP t[2]] = 1
        }
        pre = pre tok
      }
    }
    for (m = 1; m <= nv; m++) {
      if (order[m] in built) continue
      split(order[m], ev, SUBSEP)
      print "variant " variants[order[m]] " " ev[1] "::" ev[2]
    }
  }' "$out/prod.txt" > "$out/variants.txt"

cat "$out/fns.txt" "$out/fields.txt" "$out/variants.txt" > "$out/inventory.txt"
if [ "${1:-}" != --check ]; then
  cat "$out/inventory.txt"
  exit 0
fi
# Exemption lines are `kind path name  # reason`.
sed -E 's/[[:space:]]*#.*//; /^[[:space:]]*$/d' tools/inventory-exempt.txt | sort -u > "$out/exempt.txt"
sort -u "$out/inventory.txt" > "$out/printed.txt"
status=0
if comm -23 "$out/printed.txt" "$out/exempt.txt" | grep .; then
  echo "^ not exempt: delete it, give it a production caller, or list it with its reason in tools/inventory-exempt.txt" >&2
  status=1
fi
if comm -13 "$out/printed.txt" "$out/exempt.txt" | grep .; then
  echo "^ exempt but no longer printed: drop it from tools/inventory-exempt.txt" >&2
  status=1
fi
exit $status
