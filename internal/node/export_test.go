package node

// FunctionsOf exposes a worker's function table to the external tests.
func FunctionsOf(w *SimWorker) *FunctionTable { return w.cfg.Functions }
