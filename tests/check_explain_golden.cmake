# Compares `pec explain <rules>` byte for byte with a committed golden
# text (the cli_explain_unsound CTest). The diagnosis text carries no
# timings, so any difference is a change in what a rejection reports: the
# failing entry, the counterexample model, the minimized obligation or the
# strengthening trail. On a mismatch the fresh text is printed. A change
# that means to alter a diagnosis regenerates the golden with
#   pec explain rules/unsound.rules > tests/golden/explain_unsound.golden
# and says why in CHANGES.md.
#
# Usage: cmake -DPEC_BIN=... -DRULES=... -DGOLDEN=... -P this-file
foreach(Var PEC_BIN RULES GOLDEN)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "check_explain_golden: ${Var} not set")
  endif()
endforeach()

execute_process(
  COMMAND ${PEC_BIN} explain ${RULES}
  OUTPUT_VARIABLE Fresh
  ERROR_VARIABLE Err
  RESULT_VARIABLE Exit)
if(NOT Exit EQUAL 0)
  message(FATAL_ERROR "pec explain ${RULES} failed (exit ${Exit}): ${Err}")
endif()

file(READ ${GOLDEN} Golden)
if(NOT Fresh STREQUAL Golden)
  message("${Fresh}")
  message(FATAL_ERROR
          "pec explain ${RULES} differs from ${GOLDEN}; the fresh output "
          "is printed above")
endif()
message(STATUS "pec explain ${RULES} matches ${GOLDEN}")
