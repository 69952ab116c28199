#!/bin/sh
# Reachability census of the libraries: which top-level value
# definitions of lib/ and of the examples' support library
# (examples/release/) no root reaches. Roots are bin/, bench/ and the
# examples themselves (examples/*.ml); test/ is not a root.
#
# It reads the compiler's typed trees, not the source text: after
# `dune build @check`, `ocamlcmt -annot` turns every .cmt into a list of
# definitions and of references, each reference carrying the location of
# the declaration it resolved to (so module aliases, `open`s and functor
# instances are followed). A reference inside a library definition is
# an edge from that definition; the census closes the roots over the
# edges.
#
# A reference recorded without a location (an `ext_ref`, as through an
# alias `module Json = Mdp_prelude.Json` inside an executable) is
# resolved by module and value name instead.
# What the compiler does not record as a reference is invisible here:
# a value that only a functor consumes (an argument's `equal`/`hash`)
# shows as unreached.
#
# Usage: sh scripts/census.sh       (from the repo root)
# Prints one line per unreached definition, `Module.name file:line`,
# marked `(test)` when only test/ reaches it, then a count line. The
# count is information, not a verdict: the exit status is 0 whenever
# the census ran. CI compares the names and marks, without file:line,
# against scripts/census.expected and fails on any difference.
set -eu
dune build @check
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
incs=$(find _build/default -type d -path '*objs/byte' | sed 's/^/-I /')
find _build/default/lib _build/default/bin _build/default/bench \
  _build/default/examples _build/default/test -name '*.cmt' |
while read -r cmt; do
  # shellcheck disable=SC2086
  ocamlcmt $incs -annot -o "$tmp/$(echo "$cmt" | tr / _).annot" "$cmt"
done
cat "$tmp"/*.annot | awk '
function stem(f) { sub(/\.mli?$/, "", f); return f }
function islib(f) { return f ~ /^(lib|examples\/release)\// }
function isroot(f) { return f ~ /^(bin|bench)\// || f ~ /^examples\/[^\/]*\.ml$/ }
function unq(s) { gsub(/"/, "", s); return s }
# A location line: "file" line bol cnum "file" line bol cnum
/^"/ && NF == 8 { file = unq($1); line = $2; pos = $4 + 0; next }
/^  def / {
  nd++; dfile[nd] = file; dname[nd] = $2; docc[nd] = pos
  dline[nd] = line; dstart[nd] = $6 + 0; dend[nd] = $NF + 0
  next
}
/^  int_ref / {
  # The path may contain spaces ("Stdlib.( + )"); the declaration
  # location starts at the first quoted field.
  for (i = 3; i <= NF && substr($i, 1, 1) != "\""; i++) ;
  target = unq($i)
  if (!islib(target)) next
  p = $2; for (j = 3; j < i; j++) p = p " " $j
  n = split(p, parts, "."); name = parts[n]
  nr++; rfile[nr] = file; rpos[nr] = pos; rkey[nr] = stem(target) ":" name
  next
}
/^  ext_ref / {
  # A reference the compiler left without a declaration location: a
  # value reached through a module alias a root defines (bench/suite
  # reaches Json through Util.Json). Resolve it by module and value
  # name: library module names are unique, and a Dune__exe path names
  # a module of the executable itself.
  if (!isroot(file) || $2 ~ /^Dune__exe\./) next
  n = split($2, parts, "."); if (n < 2) next
  m = parts[n - 1]
  extroot[tolower(substr(m, 1, 1)) substr(m, 2) ":" parts[n]] = 1
  next
}
END {
  # A structure item binds to the end of its structure: the file
  # (cnum -1) or a module whose own scope starts where its body ends.
  for (d = 1; d <= nd; d++)
    if (dname[d] ~ /^[A-Z]/) modend[dfile[d] SUBSEP dstart[d]] = 1
  for (d = 1; d <= nd; d++) {
    f = dfile[d]
    if (!islib(f) || f !~ /\.ml$/) continue
    if (dend[d] != -1 && !((f SUBSEP dend[d]) in modend)) continue
    if (dname[d] !~ /^[a-z_][A-Za-z0-9_\047]*$/ || dname[d] == "_") continue
    k = stem(f) ":" dname[d]
    isdef[k] = 1; where[k] = f ":" dline[d]
    ns[f]++; sdef[f, ns[f]] = d
  }
  for (r = 1; r <= nr; r++) {
    f = rfile[r]; t = rkey[r]
    if (isroot(f)) { root[t] = 1; continue }
    if (f ~ /^test\//) { tested[t] = 1; continue }
    if (!islib(f)) continue
    # The reference belongs to the last structure item that starts
    # before it, unless that item (non-recursive) already ended.
    src = stem(f) ":<top>"; best = -1
    for (i = 1; i <= ns[f]; i++) {
      d = sdef[f, i]
      if (docc[d] <= rpos[r] && docc[d] > best) { best = docc[d]; bd = d }
    }
    if (best >= 0 && !(dstart[bd] > docc[bd] && rpos[r] > dstart[bd]))
      src = stem(f) ":" dname[bd]
    ne++; esrc[ne] = src; edst[ne] = t
  }
  for (k in isdef) { b = k; sub(/.*\//, "", b); if (b in extroot) root[k] = 1 }
  for (t in root) { reached[t] = 1; todo[++nt] = t }
  while (nt > 0) {
    k = todo[nt--]
    top = k; sub(/:.*/, ":<top>", top)
    if (!(top in reached)) { reached[top] = 1; todo[++nt] = top }
    for (e = 1; e <= ne; e++)
      if (esrc[e] == k && !(edst[e] in reached)) {
        reached[edst[e]] = 1; todo[++nt] = edst[e]
      }
  }
  for (k in isdef) if (!(k in reached)) {
    m = k; sub(/:.*/, "", m); sub(/.*\//, "", m)
    m = toupper(substr(m, 1, 1)) substr(m, 2)
    name = k; sub(/.*:/, "", name)
    print m "." name " " where[k] ((k in tested) ? " (test)" : "")
  }
}' | sort > "$tmp/unreached"
cat "$tmp/unreached"
echo "$(wc -l < "$tmp/unreached" | tr -d ' ') unreached library definitions"
