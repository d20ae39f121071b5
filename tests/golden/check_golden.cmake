# Golden-bytes gate: regenerate every trajectory + manifest in this
# directory with galsbench and byte-compare it against the checked-in
# copy. Any change to the simulated machine, the scheduler, the record
# encoders or the manifest writer that moves a single byte fails here.
#
#   cmake -DGALSBENCH=path/to/galsbench -DWORK_DIR=scratch/dir \
#         [-DUPDATE=ON] -P tests/golden/check_golden.cmake
#
# UPDATE=ON rewrites the goldens instead of comparing; only do that in
# a change that deliberately moves bytes (and bumps galssimVersion).

if(NOT GALSBENCH OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DGALSBENCH=... -DWORK_DIR=... -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
get_filename_component(GOLDEN_DIR "${CMAKE_SCRIPT_MODE_FILE}" DIRECTORY)

# The environment defaults must not reshape the grids.
unset(ENV{GALSSIM_INSTS})
unset(ENV{GALSSIM_BENCH})

# "name|galsbench arguments" (the output/manifest paths are appended).
set(GOLDEN_RUNS
  "fig05|--scenario fig05 --insts 2000"
  "phase|--scenario phase --insts 2000"
  "ablation-dvfs|--scenario ablation-dvfs --insts 2000"
  "fabric_smoke|--scenario fabric_smoke --insts 2000"
  "fabric_topo|--scenario fabric_topo --insts 2000"
  "fig05_interval|--scenario fig05 --insts 2000 --interval-ticks 1000000"
  "dvfs-explorer_warm|--scenario dvfs-explorer --insts 12000 --warmup-insts 10000 --seeds 2"
  "fabric_axes|--scenario fabric_topo --insts 2000 --cores 4 --topology mesh2d --traffic uniform,hotspot:2 --bench gcc --seed-list 3,5"
  "fig05_shard|--scenario fig05 --insts 2000 --seeds 2 --shard 2/3")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(failed "")
foreach(run IN LISTS GOLDEN_RUNS)
  string(FIND "${run}" "|" bar)
  string(SUBSTRING "${run}" 0 ${bar} name)
  math(EXPR bar "${bar} + 1")
  string(SUBSTRING "${run}" ${bar} -1 argstr)
  separate_arguments(args UNIX_COMMAND "${argstr}")
  # Relative paths, so the manifest's "output" field is stable.
  execute_process(
    COMMAND "${GALSBENCH}" ${args} --jobs 2
            --output ${name}.gtrj --manifest ${name}.manifest.json
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name}: galsbench exited ${rc}")
    list(APPEND failed ${name})
    continue()
  endif()
  foreach(file ${name}.gtrj ${name}.manifest.json)
    if(UPDATE)
      file(COPY "${WORK_DIR}/${file}" DESTINATION "${GOLDEN_DIR}")
      continue()
    endif()
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${GOLDEN_DIR}/${file}" "${WORK_DIR}/${file}"
      RESULT_VARIABLE differs)
    if(differs)
      message(SEND_ERROR "${file}: differs from the golden copy")
      list(APPEND failed ${file})
    endif()
  endforeach()
endforeach()

if(failed)
  message(FATAL_ERROR "golden bytes moved: ${failed}")
endif()
list(LENGTH GOLDEN_RUNS n)
message(STATUS "golden: ${n} trajectories + manifests byte-identical")
