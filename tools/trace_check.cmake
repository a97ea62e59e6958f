# End-to-end trace contract, driven through the shipped binaries only: the
# synran CLI writes one batch's trace in both formats, `synran trace
# convert` must round-trip them byte-for-byte, the binary file must be at
# least 4x smaller than its JSONL twin, `trace stats --format=json` must
# agree across formats (and its table show a corrupted-value batch's
# spend), a --threads=4 rerun must produce the identical binary trace, and
# bench_schema_check --trace must accept every file, and reject a
# corrupted-value JSONL trace stripped of its gated corruption fields.
# Driven from add_test():
#
#   cmake -DCLI=<synran> -DCHECKER=<bench_schema_check> -DWORKDIR=<dir>
#         -P trace_check.cmake
#
# Nothing here links the library — a bug that the in-process tests can't
# see because writer and reader share code still has to get past the
# independent checker and the byte comparisons below.
# Script mode sets no policies. Without CMP0054, `if(variant STREQUAL "byz")`
# would read "byz" as the variable of that name (the byz command line
# below), and the byz-only checks would never run.
cmake_policy(SET CMP0054 NEW)

if(NOT DEFINED CLI OR NOT DEFINED CHECKER OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "trace_check.cmake needs -DCLI=... -DCHECKER=... -DWORKDIR=...")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_or_die)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "command failed (rc=${rc}): ${ARGN}\n--- output ---\n${out}${err}")
  endif()
endfunction()

function(expect_same a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endfunction()

# A trace whose run_begin gates a field family in, but whose round or
# run_end lines lack that family's fields, is one JsonlTraceReader rejects:
# the checker must reject it too, naming the missing field.
function(expect_rejected file)
  execute_process(COMMAND ${CHECKER} --trace ${file} RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT "${out}${err}" MATCHES "corruptions is missing")
    message(FATAL_ERROR "bench_schema_check --trace did not reject ${file} "
      "for a missing gated field (rc=${rc}):\n${out}${err}")
  endif()
  execute_process(COMMAND ${CLI} trace stats --in ${file} RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "trace stats accepted ${file}:\n${out}${err}")
  endif()
endfunction()

# One crash-fault batch, one omission-fault batch and one corrupted-value
# batch (the last two exercise the flag-gated omission and corruption
# fields on the wire); each traced in both formats.
set(base run --protocol synran --adversary coinbias
         --n 32 --t 4 --reps 5 --seed 7)
set(omit run --protocol synran --adversary none
         --n 32 --t 4 --reps 5 --seed 7 --faults=omit:0.2,40)
set(byz run --protocol synran --adversary none
        --n 32 --t 4 --reps 5 --seed 7 --faults=byz:0.2,8)
foreach(variant base omit byz)
  run_or_die(${CLI} ${${variant}}
    --trace-out=${WORKDIR}/${variant}.jsonl --trace-format=jsonl)
  run_or_die(${CLI} ${${variant}}
    --trace-out=${WORKDIR}/${variant}.bin --trace-format=bin)

  # Round trips through `trace convert`: decoding the binary must recover
  # the JSONL byte-for-byte, and JSONL -> binary -> JSONL must be a fixed
  # point (header fields may differ from the direct binary, so the encode
  # leg is judged by what decodes back out).
  run_or_die(${CLI} trace convert --in ${WORKDIR}/${variant}.bin
    --out ${WORKDIR}/${variant}.converted.jsonl --to jsonl)
  expect_same(${WORKDIR}/${variant}.jsonl
    ${WORKDIR}/${variant}.converted.jsonl
    "binary -> jsonl convert must match the directly written trace")
  run_or_die(${CLI} trace convert --in ${WORKDIR}/${variant}.jsonl
    --out ${WORKDIR}/${variant}.reencoded.bin --to bin)
  run_or_die(${CLI} trace convert --in ${WORKDIR}/${variant}.reencoded.bin
    --out ${WORKDIR}/${variant}.reencoded.jsonl --to jsonl)
  expect_same(${WORKDIR}/${variant}.jsonl
    ${WORKDIR}/${variant}.reencoded.jsonl
    "jsonl -> bin -> jsonl must be a fixed point")

  # Streaming aggregation must not depend on which format it read.
  execute_process(COMMAND ${CLI} trace stats --in ${WORKDIR}/${variant}.jsonl
    --format json RESULT_VARIABLE rc OUTPUT_VARIABLE stats_jsonl)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace stats on ${variant}.jsonl failed (rc=${rc})")
  endif()
  execute_process(COMMAND ${CLI} trace stats --in ${WORKDIR}/${variant}.bin
    --format json RESULT_VARIABLE rc OUTPUT_VARIABLE stats_bin)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace stats on ${variant}.bin failed (rc=${rc})")
  endif()
  if(NOT stats_jsonl STREQUAL stats_bin)
    message(FATAL_ERROR
      "trace stats --format=json disagrees across formats for ${variant}:\n"
      "jsonl: ${stats_jsonl}\nbin:   ${stats_bin}")
  endif()

  # The stats table shows the corruption spend, the same from either
  # format; the byz batch spends corruptions, so its mean is not zero.
  if(variant STREQUAL "byz")
    set(means "")
    foreach(ext jsonl bin)
      execute_process(COMMAND ${CLI} trace stats --in ${WORKDIR}/byz.${ext}
        RESULT_VARIABLE rc OUTPUT_VARIABLE table)
      if(NOT rc EQUAL 0 OR
         NOT table MATCHES "corruptions used \\(mean\\) *\\| *([0-9.]+)")
        message(FATAL_ERROR
          "trace stats on byz.${ext} shows no corruption row (rc=${rc}):\n"
          "${table}")
      endif()
      list(APPEND means "${CMAKE_MATCH_1}")
    endforeach()
    list(GET means 0 mean_jsonl)
    list(GET means 1 mean_bin)
    if(NOT mean_jsonl STREQUAL mean_bin OR mean_jsonl STREQUAL "0.000")
      message(FATAL_ERROR "trace stats corruptions used (mean): "
        "${mean_jsonl} from byz.jsonl, ${mean_bin} from byz.bin")
    endif()
  endif()

  # The independent validator walks both files from the kTrace2* constants.
  run_or_die(${CHECKER} --trace
    ${WORKDIR}/${variant}.jsonl ${WORKDIR}/${variant}.bin)

  # The byz runs gate the corruption pair in. Strip it from every round
  # and run_end line, and, separately, from the first round whose pair
  # reads 0 (every run_end sum still holds then): both must be rejected.
  if(variant STREQUAL "byz")
    file(READ ${WORKDIR}/byz.jsonl byz_text)
    string(REGEX REPLACE ",\"corruptions\":[0-9]+,\"corrupted\":[0-9]+" ""
      stripped_all "${byz_text}")
    string(REGEX MATCH
      "{\"event\":\"round\",[^\n]*,\"corruptions\":0,\"corrupted\":0}"
      zero_round "${byz_text}")
    if(stripped_all STREQUAL byz_text OR zero_round STREQUAL "")
      message(FATAL_ERROR "byz.jsonl has no corruption pair to strip")
    endif()
    string(REPLACE ",\"corruptions\":0,\"corrupted\":0}" "}"
      zero_round_stripped "${zero_round}")
    string(REPLACE "${zero_round}" "${zero_round_stripped}"
      stripped_one "${byz_text}")
    file(WRITE ${WORKDIR}/byz.stripped_all.jsonl "${stripped_all}")
    file(WRITE ${WORKDIR}/byz.stripped_one.jsonl "${stripped_one}")
    expect_rejected(${WORKDIR}/byz.stripped_all.jsonl)
    expect_rejected(${WORKDIR}/byz.stripped_one.jsonl)
  endif()

  # The headline size claim: binary at least 4x smaller than JSONL.
  file(SIZE ${WORKDIR}/${variant}.jsonl jsonl_bytes)
  file(SIZE ${WORKDIR}/${variant}.bin bin_bytes)
  math(EXPR four_bins "4 * ${bin_bytes}")
  if(jsonl_bytes LESS four_bins)
    message(FATAL_ERROR
      "${variant}: binary trace is only ${bin_bytes} bytes vs "
      "${jsonl_bytes} JSONL — less than the promised 4x reduction")
  endif()
endforeach()

# Thread-count invariance through the CLI: a parallel rerun of the crash
# batch must reproduce the serial binary trace exactly.
run_or_die(${CLI} ${base} --threads 4
  --trace-out=${WORKDIR}/base.t4.bin --trace-format=bin)
expect_same(${WORKDIR}/base.bin ${WORKDIR}/base.t4.bin
  "--threads=4 binary trace must equal the serial one")

message(STATUS "trace_check: all round-trip, stats, size, and thread-"
  "invariance checks passed")
