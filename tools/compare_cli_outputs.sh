#!/usr/bin/env bash
# Byte-identity gate for refactors: run a fixed list of normgeo CLI
# invocations against two source trees and compare their stdout, without the
# `seconds` timing lines, and their exit codes.
#
# Usage: tools/compare_cli_outputs.sh PARENT_SRC CHANGE_SRC
#   Each argument is a checkout's root (holding src/normgeo) or its src
#   directory.  Prints one line per invocation and a diff for each that
#   differs.  Exits 0 when all match, 1 on any difference, 2 on bad usage.
#   Takes a few minutes; the two trees run side by side, one process each.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_SRC CHANGE_SRC" >&2
    exit 2
fi

src_dir() {
    if [ -d "$1/src/normgeo" ]; then
        (cd "$1/src" && pwd)
    elif [ -d "$1/normgeo" ]; then
        (cd "$1" && pwd)
    else
        echo "no normgeo package under $1" >&2
        return 1
    fi
}
parent=$(src_dir "$1") || exit 2
change=$(src_dir "$2") || exit 2

hexagon='polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]'
# battery_specs(7, 20)[0], written at full precision.
polygon0='polyv:v=[[0.7858313674021201,-0.5921664096036845],[0.14413548292338202,-0.8899193478079512],[0.13757045672648927,0.8785065645059619],[-0.272598308979969,0.8340155750102037],[0.681661001281639,-0.6936632744049768],[1.0017230951406,0.03323057755708036],[0.4436434705169979,-0.9259553524937753],[0.3627237032597195,-1.1938642851048182]]'
polyf='polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],[0,1,-1]]'
moduli=(--delta-eps 0.5,1,1.5 --gamma-t 0.5,1 --rho-t 1)

invocations=(
    "verify --battery seed=7,count=20"
    "constants --space $hexagon --oracle ${moduli[*]}"
    "constants --space $polygon0 --oracle ${moduli[*]}"
    "constants --space lp:p=1.5,dim=2 ${moduli[*]}"
    "constants --space lp:p=1.5,dim=3 --delta-eps 0.5,1,1.5"
    "constants --space $polyf --delta-eps 0.5,1,1.5"
    "sweep --space $hexagon --delta-eps 0.25:1.75:0.25"
    "sweep --space lp:dim=2 --p 1:4:0.25"
    "constants --space lp:p=2,dim=2 --delta-eps 1"
    "constants --space $polygon0 --delta-eps 1 --multistart 1"
    "witness --space $hexagon --constant t"
    "constants --space lp:p=1.5,dim=3"
    "verify --space lp:p=1.5,dim=3"
    "verify --space lp:p=2,dim=2"
    "witness --space $hexagon --constant T"
    "witness --space $polygon0 --constant sp"
    "witness --space $polygon0 --constant cnj"
    "witness --space $polygon0 --constant zbaganu"
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Runs the CLI from one tree; writes stdout without `seconds` lines and then
# the exit code to $3.
run() {
    local src=$1 args=$2 out=$3 code
    # The invocations hold no spaces inside an argument, so word splitting
    # rebuilds the argv.
    PYTHONPATH="$src" python3 -m normgeo.cli $args > "$out.raw" 2> /dev/null
    code=$?
    grep -v seconds "$out.raw" > "$out"
    echo "exit $code" >> "$out"
}

status=0
i=0
for args in "${invocations[@]}"; do
    i=$((i + 1))
    run "$parent" "$args" "$work/$i.parent" &
    run "$change" "$args" "$work/$i.change" &
    wait
    if cmp -s "$work/$i.parent" "$work/$i.change"; then
        echo "same    $args"
    else
        echo "DIFFERS $args"
        diff "$work/$i.parent" "$work/$i.change" | head -n 40
        status=1
    fi
done
exit $status
