package portals

// Message-kind space for the whole stack. Every layer that registers a
// handler on the NIC dispatch table draws its kinds from the range assigned
// here, so collisions are impossible by construction (RegisterHandler also
// panics on a duplicate registration, catching mistakes in tests).
const (
	// Portals protocol kinds (this package).
	KindPtlPut uint8 = 1 // put request: payload carried, applied to target MD
	KindPtlAck uint8 = 2 // acknowledgement of a put (remote completion)
	KindRelAck uint8 = 5 // reliable-delivery acknowledgement (relay.go)

	// KindRuntimeBase is the first kind owned by internal/runtime
	// (point-to-point send/recv, barrier, collectives).
	KindRuntimeBase uint8 = 10
	// KindCoreBase is the first kind owned by internal/core (the strawman
	// RMA protocol).
	KindCoreBase uint8 = 20
	// KindMPI2Base is the first kind owned by internal/mpi2rma.
	KindMPI2Base uint8 = 40
	// KindGASNetBase is the first kind owned by internal/gasnet.
	KindGASNetBase uint8 = 70
)
