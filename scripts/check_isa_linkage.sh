#!/bin/sh
# ISA linkage gate for the SIMD SHA-256 lane kernels.
#
# Usage: check_isa_linkage.sh NM AR LIBRARY
#
# sha256x8_avx2.cc and sha256x16_avx512.cc are the only objects of the
# library built with -mavx2 / -mavx512f. When two objects define the
# same weak symbol (an inline function, a template instantiation) the
# linker keeps one copy for the whole program, so a helper those files
# share with external linkage could run its AVX-512 copy on an
# AVX2-only CPU, or either copy on a pre-AVX2 one. A host that has
# AVX-512 cannot catch that at run time, so this check reads the
# objects instead: it fails if either defines any external or weak
# symbol other than its declared sha256Compress* / sha256Final*Seeded*
# / sha256ChainF* entry points and the round-constant table
# sha256tables::K. Objects built without their ISA (the backend gated
# off) define nothing and pass.
set -eu

if [ "$#" -ne 3 ]; then
    echo "usage: $0 NM AR LIBRARY" >&2
    exit 2
fi
nm=$1
ar=$2
lib=$3

members=$("$ar" t "$lib")
symbols=$("$nm" -g -C --defined-only "$lib")
allowed='^(void )?herosign::(sha256Compress[^(]*|sha256Final[^(]*Seeded[^(]*|sha256ChainF[^(]*)\(|^herosign::sha256tables::K$'

status=0
for obj in sha256x8_avx2.cc.o sha256x16_avx512.cc.o; do
    if ! printf '%s\n' "$members" | grep -qx "$obj"; then
        echo "isa linkage: $obj is not a member of $lib" >&2
        status=1
        continue
    fi
    # nm prints "member:" before each member's symbols, then one
    # "address type name" line per symbol; names may contain spaces.
    stray=$(printf '%s\n' "$symbols" | awk -v obj="$obj" '
        /\.o:$/ { cur = substr($0, 1, length($0) - 1); next }
        cur == obj && NF >= 3 { sub(/^[0-9a-fA-F]* +[A-Za-z] /, ""); print }
    ' | grep -Ev "$allowed" || true)
    if [ -n "$stray" ]; then
        echo "isa linkage: $obj defines symbols outside its entry points:" >&2
        printf '%s\n' "$stray" | sed 's/^/  /' >&2
        status=1
    else
        echo "isa linkage: $obj OK"
    fi
done
exit "$status"
