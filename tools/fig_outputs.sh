#!/usr/bin/env bash
# Digest of every figure, ablation and sweep bench's stdout, one
# "sha256  name" line per binary, so a before/after comparison of a change
# that must not move any figure is a single diff:
#
#   tools/fig_outputs.sh build > before.txt   # on the parent checkout
#   tools/fig_outputs.sh build > after.txt    # on the change
#   diff before.txt after.txt
#
# A bench that exits nonzero (its shape self-check drifted) still gets a
# digest line, followed by "FAILED <name> (exit N)" on stderr, and the
# script exits 1 after the last bench.
set -uo pipefail

if (($# != 1)); then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
bench_dir="$1/bench"
if [[ ! -d "${bench_dir}" ]]; then
  echo "$0: no bench directory at ${bench_dir}" >&2
  exit 2
fi

status=0
shopt -s nullglob
for bin in "${bench_dir}"/fig* "${bench_dir}"/abl_* "${bench_dir}"/sweep_*; do
  [[ -f "${bin}" && -x "${bin}" ]] || continue
  name="$(basename "${bin}")"
  digest="$("${bin}" | sha256sum)"
  code="${PIPESTATUS[0]}"
  echo "${digest%% *}  ${name}"
  if ((code != 0)); then
    echo "FAILED ${name} (exit ${code})" >&2
    status=1
  fi
done
exit "${status}"
