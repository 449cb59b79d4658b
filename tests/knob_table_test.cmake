# Knob-table check: every G2P_* environment knob the code reads is documented
# in docs/tuning.md, and every G2P_* name documented there is still read.
#
# Code side: the "G2P_*" string literals in src/, bench/, examples/, tests/
# and perfbench/ (a knob is read by a getenv on its literal name). Doc side:
# every G2P_* name in docs/tuning.md, minus the CMake option()s of the root
# CMakeLists.txt (build-time switches, documented there but not env knobs).
#
# Run: cmake -DG2P_SOURCE_DIR=<repo root> -P tests/knob_table_test.cmake
if(NOT G2P_SOURCE_DIR)
  message(FATAL_ERROR "pass -DG2P_SOURCE_DIR=<repo root>")
endif()

set(code_knobs "")
foreach(dir src bench examples tests perfbench)
  file(GLOB_RECURSE files "${G2P_SOURCE_DIR}/${dir}/*.cpp" "${G2P_SOURCE_DIR}/${dir}/*.h"
       "${G2P_SOURCE_DIR}/${dir}/*.py")
  foreach(f ${files})
    file(READ "${f}" text)
    string(REGEX MATCHALL "\"G2P_[A-Z0-9_]+\"" found "${text}")
    foreach(lit ${found})
      string(REPLACE "\"" "" name "${lit}")
      list(APPEND code_knobs "${name}")
    endforeach()
  endforeach()
endforeach()

file(READ "${G2P_SOURCE_DIR}/CMakeLists.txt" cmake_text)
string(REGEX MATCHALL "option\\(G2P_[A-Z0-9_]+" options "${cmake_text}")
string(REPLACE "option(" "" build_options "${options}")

file(READ "${G2P_SOURCE_DIR}/docs/tuning.md" doc_text)
string(REGEX MATCHALL "G2P_[A-Z0-9_]+" doc_knobs "${doc_text}")
list(REMOVE_ITEM doc_knobs ${build_options})

list(REMOVE_DUPLICATES code_knobs)
list(REMOVE_DUPLICATES doc_knobs)
list(SORT code_knobs)
list(SORT doc_knobs)

set(undocumented ${code_knobs})
list(REMOVE_ITEM undocumented ${doc_knobs})
set(stale ${doc_knobs})
list(REMOVE_ITEM stale ${code_knobs})

list(LENGTH code_knobs count)
if(undocumented OR stale)
  message(FATAL_ERROR "knob table mismatch\n"
                      "  read in code, missing from docs/tuning.md: ${undocumented}\n"
                      "  documented, read nowhere: ${stale}")
endif()
message(STATUS "knob table: ${count} G2P_* knobs, code and docs/tuning.md agree")
