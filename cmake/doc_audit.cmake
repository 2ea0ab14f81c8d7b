# CTest script: the documentation's cross-references are part of the
# contract surface. Every invariant name (D1, EV2, P1, S3, ...) the docs
# cite must still appear somewhere in the first-party sources, every
# tests/test_*.cpp file the docs name as an invariant's enforcing test must
# exist, every --flag the docs mention must still be spelled by a parser
# (src/, tools/, examples/, benchmark/src/), and every backticked
# `Type::member` must name a member that the code of src/ or tools/ still
# spells outside comments. A doc that outlives a rename fails here instead
# of drifting silently — the mirror image of usage_audit.cmake, which
# checks the code side.
#
# Variables (passed with -D):
#   SOURCE_DIR  repository root

cmake_policy(SET CMP0057 NEW) # IN_LIST operator in script mode

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "doc_audit.cmake: missing -DSOURCE_DIR=...")
endif()

set(doc_files
  "${SOURCE_DIR}/docs/CONCURRENCY.md"
  "${SOURCE_DIR}/docs/ARCHITECTURE.md"
  "${SOURCE_DIR}/README.md")

set(docs "")
foreach(doc ${doc_files})
  if(NOT EXISTS "${doc}")
    message(FATAL_ERROR "doc_audit: documented file ${doc} does not exist")
  endif()
  file(READ "${doc}" content)
  string(APPEND docs "${content}")
endforeach()

# ---- corpora -----------------------------------------------------------
# Code corpus: where invariant names must live (comments and error strings
# in first-party sources).
file(GLOB_RECURSE code_files
  "${SOURCE_DIR}/src/*.hpp" "${SOURCE_DIR}/src/*.cpp"
  "${SOURCE_DIR}/tests/*.hpp" "${SOURCE_DIR}/tests/*.cpp"
  "${SOURCE_DIR}/tools/*.cpp")
set(code "")
foreach(f ${code_files})
  file(READ "${f}" content)
  string(APPEND code "${content}")
endforeach()

# Flag corpus: the parsers only. Tests, cmake scripts and CI spell removed
# flags on purpose (to check that they are refused), so they do not count.
file(GLOB_RECURSE parser_files
  "${SOURCE_DIR}/src/*.hpp" "${SOURCE_DIR}/src/*.cpp" "${SOURCE_DIR}/tools/*.cpp"
  "${SOURCE_DIR}/examples/*.cpp"
  "${SOURCE_DIR}/benchmark/src/*.hpp" "${SOURCE_DIR}/benchmark/src/*.cpp")
set(flags_corpus "")
foreach(f ${parser_files})
  file(READ "${f}" content)
  string(APPEND flags_corpus "${content}")
endforeach()

# Flags of cmake and ctest the docs legitimately mention (their spelling is
# not this repo's to keep in sync).
set(external_flags --build --output-on-failure)

# Declaration corpus: the identifiers of src/ and tools/ code, comments
# stripped, so a comment naming a deleted member does not keep it alive.
file(GLOB_RECURSE decl_files
  "${SOURCE_DIR}/src/*.hpp" "${SOURCE_DIR}/src/*.cpp" "${SOURCE_DIR}/tools/*.cpp")
set(decl "")
foreach(f ${decl_files})
  file(READ "${f}" content)
  string(APPEND decl "${content}")
endforeach()
string(REGEX REPLACE "//[^\n]*" "" decl "${decl}")
string(REGEX MATCHALL "[A-Za-z_][A-Za-z0-9_]*" decl_ids "${decl}")
list(REMOVE_DUPLICATES decl_ids)

# ---- check 1: invariant names ------------------------------------------
# Split the docs on non-alphanumerics so adjacent citations ("S1-S3",
# "(P2)") tokenize cleanly, then collect everything shaped like an
# invariant name.
string(REGEX REPLACE "[^A-Za-z0-9]+" ";" doc_words "${docs}")
set(invariants "")
foreach(w ${doc_words})
  if(w MATCHES "^(D[0-9]+|EV[0-9]+|P[0-9]+|S[0-9]+)$")
    list(APPEND invariants "${w}")
  endif()
endforeach()
list(REMOVE_DUPLICATES invariants)
list(SORT invariants)

set(missing "")
foreach(tok ${invariants})
  string(FIND "${code}" "${tok}" pos)
  if(pos EQUAL -1)
    list(APPEND missing "${tok}")
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR
          "doc_audit: invariant names cited in the docs no longer appear "
          "anywhere in src/, tests/ or tools/: ${missing}")
endif()
list(LENGTH invariants n_inv)

# ---- check 2: cited test files -----------------------------------------
string(REGEX MATCHALL "test_[a-z0-9_]+\\.cpp" doc_tests "${docs}")
list(REMOVE_DUPLICATES doc_tests)
list(SORT doc_tests)
set(missing "")
foreach(t ${doc_tests})
  if(NOT EXISTS "${SOURCE_DIR}/tests/${t}")
    list(APPEND missing "${t}")
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR
          "doc_audit: the docs cite enforcing tests that do not exist under "
          "tests/: ${missing}")
endif()
list(LENGTH doc_tests n_tests)

# ---- check 3: cited flags ----------------------------------------------
string(REGEX MATCHALL "--[a-z][a-z0-9_-]*[a-z0-9]" doc_flags "${docs}")
list(REMOVE_DUPLICATES doc_flags)
list(SORT doc_flags)
set(missing "")
foreach(flag ${doc_flags})
  if(flag IN_LIST external_flags)
    continue()
  endif()
  string(FIND "${flags_corpus}" "${flag}" pos)
  if(pos EQUAL -1)
    list(APPEND missing "${flag}")
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR
          "doc_audit: the docs cite flags that no parser in src/, tools/, "
          "examples/ or benchmark/src/ spells: ${missing}")
endif()
list(LENGTH doc_flags n_flags)

# ---- check 4: cited members -------------------------------------------
# `Type::member` (or `ns::function`) inside backticks; the last segment
# must be an identifier of the declaration corpus. std:: names are not
# this repo's.
string(REGEX MATCHALL "`[^`]*`" doc_spans "${docs}")
string(JOIN " " doc_spans ${doc_spans})
string(REGEX MATCHALL "[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+" doc_members
       "${doc_spans}")
list(REMOVE_DUPLICATES doc_members)
list(SORT doc_members)
set(missing "")
set(n_members 0)
foreach(cite ${doc_members})
  if(cite MATCHES "^std::")
    continue()
  endif()
  string(REGEX REPLACE "^.*::" "" member "${cite}")
  if(NOT member IN_LIST decl_ids)
    list(APPEND missing "${cite}")
  endif()
  math(EXPR n_members "${n_members} + 1")
endforeach()
if(missing)
  message(FATAL_ERROR
          "doc_audit: the docs cite members that the code of src/ and tools/ "
          "no longer declares: ${missing}")
endif()

message(STATUS
        "doc_audit: ${n_inv} invariant names, ${n_tests} cited test files, "
        "${n_flags} cited flags and ${n_members} cited members all resolve")
