package core

import "gpunion/internal/api"

// NewClient creates a coordinator client. Its one caller is
// bench/trace.go; everything else calls api.NewCoordinatorClient.
// ROADMAP item 6(a), which deletes that file, deletes this one too.
func NewClient(baseURL string) *api.CoordinatorClient {
	return api.NewCoordinatorClient(baseURL)
}
