# Runs a CLI invocation and asserts on its exit code, optionally also on a
# substring of its combined stdout+stderr. Driven from add_test():
#
#   cmake -DCLI=<path> "-DARGS=run;--threads;0x" -DEXPECT_RC=2
#         [-DEXPECT_OUT=<substring>] [-DREMOVE=<file>]
#         ["-DALSO_ARGS=<second invocation>" [-DALSO_RC=<code>]
#          ["-DALSO_OUT=<substring>"]] -P cli_expect.cmake
#
# ARGS is a ;-separated list. A mismatch prints the full output and fails.
# REMOVE deletes a file first (e.g. a stale checkpoint ledger, so a resume
# test's recording run starts from nothing). ALSO_ARGS, when given, is a
# second invocation held to the same exit code and substring, or to
# ALSO_RC and ALSO_OUT when those are given.
if(NOT DEFINED CLI OR NOT DEFINED EXPECT_RC)
  message(FATAL_ERROR "cli_expect.cmake needs -DCLI=... and -DEXPECT_RC=...")
endif()

if(DEFINED REMOVE)
  file(REMOVE "${REMOVE}")
endif()

execute_process(
  COMMAND ${CLI} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
set(combined "${out}${err}")

if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR
    "expected exit code ${EXPECT_RC}, got ${rc}\n--- output ---\n${combined}")
endif()

if(DEFINED EXPECT_OUT)
  string(FIND "${combined}" "${EXPECT_OUT}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "output does not contain '${EXPECT_OUT}'\n--- output ---\n${combined}")
  endif()
endif()

if(DEFINED ALSO_ARGS)
  set(ARGS "${ALSO_ARGS}")
  unset(ALSO_ARGS CACHE)
  if(DEFINED ALSO_RC)
    set(EXPECT_RC "${ALSO_RC}")
    unset(ALSO_RC CACHE)
  endif()
  if(DEFINED ALSO_OUT)
    set(EXPECT_OUT "${ALSO_OUT}")
    unset(ALSO_OUT CACHE)
  endif()
  include(${CMAKE_CURRENT_LIST_FILE})
endif()
