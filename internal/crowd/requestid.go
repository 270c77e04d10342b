package crowd

import (
	"net/http"

	"pptd/internal/obs"
)

// EchoRequestID wraps one route handler so its response always carries
// an X-Request-ID header: the client's, when the request supplied a
// valid one, otherwise a freshly generated ID. Registered on every
// route, it makes the echo contract hold even for a bare StreamServer
// handler mounted without the node's obs middleware; under the
// middleware (which installs the header before the mux runs) the
// wrapper sees the header already set and leaves it alone, so the ID
// the middleware logged is the one the client receives.
func EchoRequestID(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if w.Header().Get(HeaderRequestID) == "" {
			id := r.Header.Get(HeaderRequestID)
			if !obs.ValidRequestID(id) {
				id = obs.NewRequestID()
			}
			w.Header().Set(HeaderRequestID, id)
		}
		h(w, r)
	}
}

// route is the contract every single-method crowd route carries: the
// request-ID echo, then the 405 method_not_allowed envelope for any
// other method.
func route(method string, h http.HandlerFunc) http.HandlerFunc {
	return EchoRequestID(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, method+" only")
			return
		}
		h(w, r)
	})
}
