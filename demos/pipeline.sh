#!/bin/sh
# The same tour through the command line.  Artifacts land in demos/out/.
set -e
cd "$(dirname "$0")/.."
OUT=demos/out

echo "### survey the big diagram"
python3 -m obfloer analyze --input diagrams/r22.json --out-dir "$OUT"

echo
echo "### full pipeline on the small one"
python3 -m obfloer all --input diagrams/r6.json --out-dir "$OUT"

echo
echo "### the two hand-built contact fixtures"
python3 -m obfloer order --input diagrams/s3_tight.json       --out-dir "$OUT" --format json
python3 -m obfloer order --input diagrams/s3_overtwisted.json --out-dir "$OUT" --format json

echo
echo "### a DOT plot of the overtwisted complex"
python3 -m obfloer plot --input diagrams/s3_overtwisted.json --out-dir "$OUT"
cat "$OUT/s3_overtwisted_spinc_0.dot"

echo
echo "### DOT plots of a diagram that is not nice (blue edges are disks)"
python3 -m obfloer plot --input diagrams/s1s2.json --out-dir "$OUT"
cat "$OUT/s1s2_spinc_0.dot" "$OUT/s1s2_spinc_1.dot"
