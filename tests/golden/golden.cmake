# Golden-output runner for manifest.txt, whose header gives the format.
#   cmake -DBIN_DIR=build -DGOLDEN_ENTRY=<name> -P tests/golden/golden.cmake
# checks one entry (ctest entry golden_<name> runs this), and
#   cmake -DGOLDEN_RECORD=ON -DBIN_DIR=build -P tests/golden/golden.cmake
# re-records the manifest, refusing when a command exits non-zero or when
# TCPLAT_JOBS=1 and 4 disagree. Included from tests/CMakeLists.txt, this
# file only defines golden_read_manifest().

cmake_policy(VERSION 3.20)

# Parses the manifest at `path` into GOLDEN_HEADER (its leading comment
# block), GOLDEN_NAMES and, per name, GOLDEN_<name>_LABELS (comma-separated),
# GOLDEN_<name>_COMMAND and GOLDEN_<name>_OUTPUTS (a list of
# "<output> <hash>"), all in the caller's scope.
function(golden_read_manifest path)
  file(STRINGS "${path}" lines)
  set(header "")
  set(name "")
  set(GOLDEN_NAMES "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^#" AND name STREQUAL "")
      string(APPEND header "${line}\n")
    elseif(line MATCHES "^([a-z0-9_]+) ([a-z0-9_,]+) : (.+)$")
      set(name "${CMAKE_MATCH_1}")
      set(GOLDEN_${name}_OUTPUTS "")
      list(APPEND GOLDEN_NAMES "${name}")
      set(GOLDEN_${name}_LABELS "${CMAKE_MATCH_2}" PARENT_SCOPE)
      set(GOLDEN_${name}_COMMAND "${CMAKE_MATCH_3}" PARENT_SCOPE)
    elseif(line MATCHES "^  ([^ ]+ [0-9a-f]+)$" AND NOT name STREQUAL "")
      list(APPEND GOLDEN_${name}_OUTPUTS "${CMAKE_MATCH_1}")
      set(GOLDEN_${name}_OUTPUTS "${GOLDEN_${name}_OUTPUTS}" PARENT_SCOPE)
    elseif(NOT line STREQUAL "")
      message(FATAL_ERROR "${path}: cannot parse line: ${line}")
    endif()
  endforeach()
  set(GOLDEN_HEADER "${header}" PARENT_SCOPE)
  set(GOLDEN_NAMES "${GOLDEN_NAMES}" PARENT_SCOPE)
endfunction()

if(NOT CMAKE_SCRIPT_MODE_FILE)
  return()
endif()

# Runs entry `name` at TCPLAT_JOBS=`jobs` in BIN_DIR/golden/jobs<N>/<name>/
# and sets `out_var` to its outputs as "<output> <hash>": the file `stdout`
# first, then the written files by name. A non-zero exit, or a program that
# is not built, is fatal.
function(golden_run name jobs out_var)
  separate_arguments(argv UNIX_COMMAND "${GOLDEN_${name}_COMMAND}")
  list(POP_FRONT argv program)
  set(exe "")
  foreach(dir bench examples)
    if(EXISTS "${BIN_DIR}/${dir}/${program}")
      set(exe "${BIN_DIR}/${dir}/${program}")
    endif()
  endforeach()
  if(exe STREQUAL "")
    message(FATAL_ERROR "golden ${name}: ${program} is not built under ${BIN_DIR}")
  endif()
  set(work "${BIN_DIR}/golden/jobs${jobs}/${name}")
  file(REMOVE_RECURSE "${work}")
  file(MAKE_DIRECTORY "${work}")
  set(ENV{TCPLAT_JOBS} "${jobs}")
  execute_process(COMMAND "${exe}" ${argv} WORKING_DIRECTORY "${work}"
                  OUTPUT_FILE "${work}/stdout" ERROR_VARIABLE stderr RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "golden ${name}, TCPLAT_JOBS=${jobs}: "
                        "`${GOLDEN_${name}_COMMAND}` exited ${rc}\n${stderr}")
  endif()

  file(GLOB_RECURSE files LIST_DIRECTORIES false RELATIVE "${work}" "${work}/*")
  list(REMOVE_ITEM files stdout)
  set(outputs "")
  foreach(file IN ITEMS stdout ${files})
    file(SHA256 "${work}/${file}" hash)
    string(SUBSTRING "${hash}" 0 16 hash)
    list(APPEND outputs "${file} ${hash}")
  endforeach()
  set(${out_var} "${outputs}" PARENT_SCOPE)
endfunction()

# Sets `out_var` to the lines of `want` missing from `got` ("- ") and of
# `got` missing from `want` ("+ "): every output that moved, appeared or
# vanished, with both hashes.
function(golden_diff want got out_var)
  set(lines "")
  foreach(entry IN LISTS want)
    if(NOT entry IN_LIST got)
      string(APPEND lines "  - ${entry}\n")
    endif()
  endforeach()
  foreach(entry IN LISTS got)
    if(NOT entry IN_LIST want)
      string(APPEND lines "  + ${entry}\n")
    endif()
  endforeach()
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

if(NOT DEFINED BIN_DIR OR NOT (DEFINED GOLDEN_ENTRY OR GOLDEN_RECORD))
  message(FATAL_ERROR "usage: cmake -DBIN_DIR=<build dir> "
                      "(-DGOLDEN_ENTRY=<name> | -DGOLDEN_RECORD=ON) -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
get_filename_component(BIN_DIR "${BIN_DIR}" ABSOLUTE)
set(manifest "${CMAKE_CURRENT_LIST_DIR}/manifest.txt")
golden_read_manifest("${manifest}")

if(GOLDEN_RECORD)
  set(text "${GOLDEN_HEADER}\n")
  foreach(name IN LISTS GOLDEN_NAMES)
    golden_run(${name} 1 serial)
    golden_run(${name} 4 parallel)
    golden_diff("${serial}" "${parallel}" moved)
    if(NOT moved STREQUAL "")
      message(FATAL_ERROR "golden ${name}: TCPLAT_JOBS=1 (-) and 4 (+) disagree; "
                          "not recording\n${moved}")
    endif()
    string(APPEND text "${name} ${GOLDEN_${name}_LABELS} : ${GOLDEN_${name}_COMMAND}\n")
    foreach(entry IN LISTS serial)
      string(APPEND text "  ${entry}\n")
    endforeach()
  endforeach()
  file(WRITE "${manifest}" "${text}")
  message(STATUS "golden: recorded ${manifest}")
  return()
endif()

set(name "${GOLDEN_ENTRY}")
if(NOT name IN_LIST GOLDEN_NAMES)
  message(FATAL_ERROR "golden: no entry ${name} in ${manifest}")
endif()
set(report "")
foreach(jobs 1 4)
  golden_run(${name} ${jobs} outputs)
  golden_diff("${GOLDEN_${name}_OUTPUTS}" "${outputs}" moved)
  if(NOT moved STREQUAL "")
    string(APPEND report "golden ${name}, TCPLAT_JOBS=${jobs}: `${GOLDEN_${name}_COMMAND}`"
                         " (- manifest, + now)\n${moved}")
  endif()
endforeach()
if(NOT report STREQUAL "")
  message(FATAL_ERROR "${report}If intended, re-record and review the manifest diff:\n"
                      "  cmake -DGOLDEN_RECORD=ON -DBIN_DIR=<build dir> -P "
                      "${CMAKE_CURRENT_LIST_FILE}")
endif()
