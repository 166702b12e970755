module mpi3rma/benchmark

go 1.22

require mpi3rma v0.0.0

replace mpi3rma => ../
