# Fails unless FILE's SHA-256 equals the hex digest on the first line of
# EXPECTED.
#   cmake -DFILE=trace.fac -DEXPECTED=golden/x.sha256 -P check_sha256.cmake
file(STRINGS "${EXPECTED}" expected LIMIT_COUNT 1)
file(SHA256 "${FILE}" actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${FILE}: sha256 ${actual}, expected ${expected}")
endif()
