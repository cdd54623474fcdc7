# Runs `pec prove --trace` and checks the Chrome trace it writes (the
# cli_prove_trace CTest): the file must be valid JSON whose traceEvents
# include `X` events for the rule span and the ATP query span, and the
# scratch journal the trace is rendered from must be gone afterwards.
#
# Usage: cmake -DPEC_BIN=... -DRULES=... -DTRACE=... -P this-file
foreach(Var PEC_BIN RULES TRACE)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "check_trace: ${Var} not set")
  endif()
endforeach()

file(REMOVE ${TRACE})
execute_process(
  COMMAND ${PEC_BIN} prove ${RULES} --trace ${TRACE} --report json --stats
  OUTPUT_QUIET
  ERROR_VARIABLE Err
  RESULT_VARIABLE Exit)
if(NOT Exit EQUAL 0)
  message(FATAL_ERROR "pec prove --trace failed (exit ${Exit}): ${Err}")
endif()

file(READ ${TRACE} Text)
string(JSON Count ERROR_VARIABLE JsonError LENGTH "${Text}" traceEvents)
if(JsonError)
  message(FATAL_ERROR "${TRACE} is not a Chrome trace: ${JsonError}")
endif()
if(Count EQUAL 0)
  message(FATAL_ERROR "${TRACE} has no events")
endif()
set(Spans "")
math(EXPR Last "${Count} - 1")
foreach(I RANGE ${Last})
  string(JSON Ph GET "${Text}" traceEvents ${I} ph)
  if(Ph STREQUAL "X")
    string(JSON Name GET "${Text}" traceEvents ${I} name)
    list(APPEND Spans "${Name}")
  endif()
endforeach()
foreach(Required rule atp.query)
  list(FIND Spans ${Required} Index)
  if(Index EQUAL -1)
    message(FATAL_ERROR "${TRACE} has no X event named '${Required}'")
  endif()
endforeach()
if(EXISTS ${TRACE}.journal.tmp)
  message(FATAL_ERROR "pec prove --trace left ${TRACE}.journal.tmp behind")
endif()
