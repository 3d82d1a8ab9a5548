# Fails if a production archive defines or references a test oracle: the CSL
# reference interpreter (configerator::Interp), the binary-heap reference
# simulator (configerator::HeapSimulator), or an implementation this tree no
# longer has beside its production one — the single-threaded Gatekeeper
# evaluator (configerator::GatekeeperProject) and the in-simulator heap
# scheduler (configerator::HeapEventQueue).
#
#   cmake -DNM=<nm> -P check_no_oracles.cmake <archive>...
set(oracles "configerator::Interp::" "configerator::GatekeeperProject"
            "configerator::HeapSimulator" "configerator::HeapEventQueue")
math(EXPR last "${CMAKE_ARGC} - 1")
set(archives "")
set(after_script FALSE)
foreach(i RANGE ${last})
  if(after_script)
    list(APPEND archives "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} MATCHES "check_no_oracles\\.cmake$")
    set(after_script TRUE)
  endif()
endforeach()
if(archives STREQUAL "")
  message(FATAL_ERROR "no archives given")
endif()

set(failed FALSE)
foreach(archive IN LISTS archives)
  execute_process(COMMAND "${NM}" -C "${archive}"
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0 OR symbols STREQUAL "")
    message(FATAL_ERROR "nm -C produced no symbols for ${archive}")
  endif()
  foreach(oracle IN LISTS oracles)
    string(FIND "${symbols}" "${oracle}" pos)
    if(NOT pos EQUAL -1)
      message(SEND_ERROR "${archive} defines or references ${oracle}")
      set(failed TRUE)
    endif()
  endforeach()
endforeach()
if(failed)
  message(FATAL_ERROR "test oracles leaked into production archives")
endif()
list(LENGTH archives n)
message(STATUS "${n} production archives are free of test oracles")
