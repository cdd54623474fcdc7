# Fails when a gtest binary lists a test whose name embeds a raw value dump
# ("<N>-byte object <..>"). GoogleTest prints a test parameter that way when
# it has no PrintTo, and gtest_discover_tests keeps that text in the ctest
# name. The bytes can include heap pointers, so such a name changes from
# build to build, and comparing test results by name across builds breaks.
#
# Usage: cmake -DLIST_FILE=<file, one gtest binary per line> -P this-file
if(NOT DEFINED LIST_FILE)
  message(FATAL_ERROR "check_gtest_names: LIST_FILE not set")
endif()

file(STRINGS ${LIST_FILE} Binaries)
list(LENGTH Binaries Count)
if(Count EQUAL 0)
  message(FATAL_ERROR "check_gtest_names: ${LIST_FILE} names no binaries")
endif()

set(Unstable 0)
foreach(Bin IN LISTS Binaries)
  execute_process(
    COMMAND ${Bin} --gtest_list_tests
    OUTPUT_VARIABLE Listing
    RESULT_VARIABLE Exit)
  if(NOT Exit EQUAL 0)
    message(FATAL_ERROR "${Bin} --gtest_list_tests failed (exit ${Exit})")
  endif()
  string(REGEX MATCHALL "[^\n]*-byte object <[^\n]*" Hits "${Listing}")
  foreach(Hit IN LISTS Hits)
    message(STATUS "unstable test name in ${Bin}:${Hit}")
    math(EXPR Unstable "${Unstable} + 1")
  endforeach()
endforeach()

if(Unstable GREATER 0)
  message(FATAL_ERROR
          "${Unstable} test name(s) embed a raw parameter dump; give the "
          "parameter type a PrintTo (see OptEntry in opts/Optimizations.h)")
endif()
message(STATUS "${Count} gtest binaries list stable test names")
